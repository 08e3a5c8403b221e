"""The combined parallel Nullspace Algorithm (Algorithm 3).

For each subset of the divide-and-conquer partition:

1. delete the zero-flux reactions' columns from the reduced stoichiometry
   (line 8) and recompute the kernel (line 9);
2. pin the non-zero-flux reactions to the bottom rows (line 11);
3. run the combinatorial parallel algorithm (Algorithm 2) up to — but not
   including — the pinned rows (line 14, Proposition 1);
4. keep only the columns with non-zero flux in every pinned row — with a
   positive sign where the pinned reaction is irreversible (lines 15–17);
5. re-insert zero rows for the deleted reactions (lines 18–21).

The union over all subsets is the complete EFM set; the subsets are
pairwise disjoint by construction (distinct zero/non-zero patterns).

Row ordering composes per subproblem: the pinned rows sit at the bottom
and the driver's selection window is ``[first_row, stop)``, so under
``ordering="dynamic"`` each subproblem's :class:`RowSelector` re-decides
its own elimination order from its own live mode matrix — always inside
its window, never touching a pinned row — and Proposition 1's argument
(the pinned rows are simply *not processed*) is untouched by the order
in which the window rows fall.

Steps 1–2 and 4–5 are shared by every way of *running* a subproblem
(:func:`prepare_subset` / :meth:`PreparedSubset.finalize`); the default
runner is Algorithm 2 (:func:`solve_subset`) and the degraded runner is
the checkpointed serial path
(:func:`solve_subset_checkpointed_serial`), which the
:class:`~repro.engine.scheduler.SubproblemScheduler` falls back to when a
subset exceeds the modeled node memory.  :func:`combined_parallel`
delegates subset ordering, dispatch and failure isolation to that
scheduler.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.kernel import NullspaceProblem, build_problem
from repro.core.stats import RunStats
from repro.cluster.memory import MemoryModel
from repro.dnc.subsets import SubsetSpec, enumerate_subsets, validate_partition
from repro.engine.context import RunContext
from repro.errors import (
    AlgorithmError,
    DependentPartitionError,
    NoModesError,
    OutOfMemoryError,
    PartitionError,
    ReversibleIdentityError,
)
from repro.efm.splitting import BWD_SUFFIX, FWD_SUFFIX, SplitRecord, split_reversible
from repro.linalg.batched import RankCache, problem_token
from repro.mpi.spmd import BackendName
from repro.mpi.tracing import CommTrace
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.pairs import PairStrategyName


@dataclasses.dataclass
class SubsetResult:
    """Outcome of one divide-and-conquer subproblem."""

    spec: SubsetSpec
    #: EFM rows in the *reduced network's* reaction order (zero columns
    #: re-inserted); empty array when the subset is empty or OOM'd.
    efms: np.ndarray
    stats: RunStats | None
    rank_traces: list[CommTrace]
    #: per-rank statistics from the Algorithm 2 run (``stats`` is the
    #: bulk-synchronous max-merge of these); empty on serial/degraded paths.
    rank_stats: list[RunStats] = dataclasses.field(default_factory=list)
    #: memory failure, if the subproblem exceeded the modeled capacity.
    oom: OutOfMemoryError | None = None
    wall_time: float = 0.0
    #: solved by the checkpointed serial fallback after an OOM (or an
    #: admission rejection) instead of Algorithm 2.
    degraded: bool = False
    #: restored from a scheduler checkpoint instead of recomputed.
    resumed: bool = False
    #: the scheduler's a-priori peak-footprint prediction, when scheduled.
    predicted_peak_bytes: int | None = None

    @property
    def n_efms(self) -> int:
        return int(self.efms.shape[0])

    @property
    def n_candidates(self) -> int:
        return self.stats.total_candidates if self.stats is not None else 0

    @property
    def completed(self) -> bool:
        return self.oom is None


@dataclasses.dataclass
class CombinedRunResult:
    """Aggregated outcome of Algorithm 3 over every subset.

    ``subsets`` is always in the run's *canonical* order (the subset
    enumeration order, or the caller's ``subset_ids`` order) regardless of
    the schedule or executor that produced the results — this is what
    makes the union bit-identical across executors and schedules.
    """

    network: MetabolicNetwork
    subsets: list[SubsetResult]
    #: scheduler/executor information (executor name, schedule, admission
    #: budget, degraded/resumed counts); empty for directly built results.
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return all(s.completed for s in self.subsets)

    @property
    def n_efms(self) -> int:
        return sum(s.n_efms for s in self.subsets)

    @property
    def total_candidates(self) -> int:
        return sum(s.n_candidates for s in self.subsets)

    @property
    def total_wall_time(self) -> float:
        return sum(s.wall_time for s in self.subsets)

    def efms(self) -> np.ndarray:
        """Union of all subsets, rows = modes, reduced-network order."""
        if not self.complete:
            raise AlgorithmError("some subsets failed; EFM set incomplete")
        parts = [s.efms for s in self.subsets if s.n_efms]
        if not parts:
            return np.zeros((0, self.network.n_reactions))
        return np.concatenate(parts, axis=0)


def shared_rank_cache(
    reduced: MetabolicNetwork, options: AlgorithmOptions
) -> tuple[RankCache, bytes] | None:
    """One rank memo for *all* subproblems of a divide-and-conquer run.

    Compatibility accessor; the canonical home of this wiring is
    :meth:`repro.engine.context.RunContext.bind_shared_rank_memo`, which
    every engine-driven run uses.  Returns ``(cache, token)`` or ``None``
    when no memo-capable backend (batched, modular) is on.
    """
    if (
        options.rank_backend not in ("batched", "modular")
        or options.acceptance == "bittree"
    ):
        return None
    token = problem_token(
        stoichiometric_matrix(reduced),
        options.policy,
        options.arithmetic == "exact",
    )
    return RankCache(), token


def _canonical_name(name: str) -> str:
    """Map a (possibly split) work-net reaction name back to its
    reduced-network origin."""
    for suffix in (FWD_SUFFIX, BWD_SUFFIX):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


@dataclasses.dataclass
class PreparedSubset:
    """Lines 8–14 of Algorithm 3, ready to run: the shrunken problem with
    partition reactions pinned, plus everything
    :meth:`finalize` needs to map the run's modes back to the reduced
    network (lines 15–21).

    ``problem`` is ``None`` for structurally empty subsets (the shrunken
    network admits no flux at all).
    """

    spec: SubsetSpec
    reduced: MetabolicNetwork
    problem: NullspaceProblem | None
    #: first pinned row — Proposition 1's early-stop position (== the full
    #: ``q`` when the dependent-partition fallback enumerates everything).
    stop: int
    #: full enumeration + filtering instead of the pinned early stop.
    fallback: bool
    split_rec: SplitRecord | None
    #: the network whose reaction order the folded modes are in.
    src: MetabolicNetwork
    force_last: tuple[str, ...]
    #: canonical reduced-network column id per problem position (for the
    #: shared rank memo), ``None`` for empty subsets.
    col_ids: np.ndarray | None

    @property
    def q_red(self) -> int:
        return self.reduced.n_reactions

    def empty_result(self, wall_time: float = 0.0) -> SubsetResult:
        return SubsetResult(
            spec=self.spec,
            efms=np.zeros((0, self.q_red)),
            stats=None,
            rank_traces=[],
            wall_time=wall_time,
        )

    def finalize(self, vals: np.ndarray) -> np.ndarray:
        """Lines 15–21: filter by the pinned rows' sign pattern, undo the
        processing permutation and any reversible splits, and re-insert
        the deleted reactions' zero columns."""
        problem = self.problem
        assert problem is not None
        # Lines 15–17: keep columns with non-zero flux in every pinned row
        # (strictly positive where the pinned reaction is irreversible: a
        # negative flux there can never be part of a valid EFM, and the
        # candidates that would have zeroed it belong to other subsets).
        if not self.fallback:
            keep = np.ones(vals.shape[0], dtype=bool)
            for pos in range(self.stop, problem.q):
                v = vals[:, pos]
                keep &= (v != 0.0) if problem.reversible[pos] else (v > 0.0)
            vals = vals[keep]
        vals = vals[:, problem.inverse_perm()]  # work_net reaction order

        if self.split_rec is not None:
            vals = self.split_rec.fold_modes(vals)  # back to src reaction order

        if self.fallback:
            # Full enumeration ran: filter the finished (hence
            # sign-feasible) EFMs by the non-zero pattern instead of by
            # pinned rows.
            keep = np.ones(vals.shape[0], dtype=bool)
            for name in self.force_last:
                keep &= np.abs(vals[:, self.src.reaction_index(name)]) > 1e-12
            vals = vals[keep]

        # Lines 18–21: expand back to the reduced network's full reaction set.
        efms = np.zeros((vals.shape[0], self.q_red))
        for j, name in enumerate(self.src.reaction_names):
            efms[:, self.reduced.reaction_index(name)] = vals[:, j]
        return efms


def prepare_subset(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    auto_split: bool = True,
) -> PreparedSubset:
    """Build one subset's pinned subproblem (lines 8–14).

    Auto-splits reversible reactions that cannot be pivots in the
    shrunken stoichiometry.  Partition reactions carry pivot priority; if
    one is still linearly dependent (reversible only), Proposition 1's
    early stop is unsound for this subset and the prepared problem falls
    back to full enumeration of the subnetwork plus filtering.
    """
    validate_partition(reduced, spec.partition)
    q_red = reduced.n_reactions

    sub = (
        reduced.without_reactions(spec.zero, suffix=f"-s{spec.subset_id}")
        if spec.zero
        else reduced
    )
    force_last = list(spec.nonzero)

    split_rec: SplitRecord | None = None
    work_net = sub
    fallback = False
    problem: NullspaceProblem | None = None
    for _ in range(2 * q_red + 2):
        try:
            problem = build_problem(
                work_net,
                options=options,
                force_last=() if fallback else force_last,
            )
            break
        except DependentPartitionError:
            fallback = True
        except ReversibleIdentityError as exc:
            if not auto_split:
                raise
            rec = split_reversible(work_net, exc.reactions)
            split_rec = rec if split_rec is None else _compose_splits(split_rec, rec)
            work_net = rec.split
        except NoModesError:
            # The shrunken network admits no flux at all: empty subset.
            return PreparedSubset(
                spec=spec,
                reduced=reduced,
                problem=None,
                stop=0,
                fallback=False,
                split_rec=None,
                src=sub,
                force_last=tuple(force_last),
                col_ids=None,
            )
    else:  # pragma: no cover - each retry strictly reduces failure modes
        raise PartitionError(f"subset {spec.label()}: splitting did not converge")

    assert problem is not None
    stop = problem.q if fallback else problem.q - len(force_last)
    canon = {name: j for j, name in enumerate(reduced.reaction_names)}
    col_ids = np.array(
        [canon[_canonical_name(nm)] for nm in problem.names], dtype=np.int64
    )
    return PreparedSubset(
        spec=spec,
        reduced=reduced,
        problem=problem,
        stop=stop,
        fallback=fallback,
        split_rec=split_rec,
        src=split_rec.original if split_rec is not None else sub,
        force_last=tuple(force_last),
        col_ids=col_ids,
    )


def _float_values(modes) -> np.ndarray:
    vals = modes.values
    if modes.exact:
        vals = np.array(
            [[float(x) for x in row] for row in vals], dtype=np.float64
        ).reshape(vals.shape)
    return vals


def solve_subset(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    n_ranks: int,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    backend: BackendName = "sequential",
    pair_strategy: PairStrategyName = "strided",
    memory_model: MemoryModel | None = None,
    auto_split: bool = True,
    rank_memo: tuple[RankCache, bytes] | None = None,
    context: RunContext | None = None,
) -> SubsetResult:
    """Solve one subset's subproblem with Algorithm 2 (lines 3–22).

    The context's shared rank memo (see
    :meth:`~repro.engine.context.RunContext.bind_shared_rank_memo`)
    shares support-pattern rank results with the run's other subproblems;
    keys are canonical reduced-network column sets, so differing
    permutations, deletions and reversible splits all address the same
    entries.  ``rank_memo`` is the legacy spelling of the same thing and
    is folded into a private context when no context is given.
    """
    ctx = RunContext.ensure(context, options=options, memory_model=memory_model)
    if context is None and rank_memo is not None:
        ctx.shared_rank_memo = rank_memo
    t0 = time.perf_counter()
    prep = prepare_subset(reduced, spec, options=ctx.options, auto_split=auto_split)
    if prep.problem is None:
        return prep.empty_result(wall_time=time.perf_counter() - t0)

    binding = ctx.rank_binding_for(prep.problem, prep.col_ids)
    try:
        run = combinatorial_parallel(
            prep.problem,
            n_ranks,
            backend=backend,
            pair_strategy=pair_strategy,
            stop_row=prep.stop,
            memory_model=ctx.fresh_memory(),
            rank_cache=binding,
            context=ctx,
        )
    except OutOfMemoryError as exc:
        return SubsetResult(
            spec=spec,
            efms=np.zeros((0, prep.q_red)),
            stats=None,
            rank_traces=[],
            oom=exc,
            wall_time=time.perf_counter() - t0,
        )

    efms = prep.finalize(_float_values(run.result.modes))
    return SubsetResult(
        spec=spec,
        efms=efms,
        stats=run.stats,
        rank_traces=run.rank_traces,
        rank_stats=run.rank_stats,
        wall_time=time.perf_counter() - t0,
    )


def solve_subset_checkpointed_serial(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    *,
    context: RunContext | None = None,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
    auto_split: bool = True,
) -> SubsetResult:
    """Solve one subset on the checkpointed serial path (degraded mode).

    The scheduler's failure-isolation fallback: when Algorithm 2 on a
    subset exceeds the modeled node memory, the subset re-runs here —
    serial Algorithm 1 with periodic snapshots, memory accounting in
    recording (non-enforcing) mode — so one oversized subset slows the
    run down instead of aborting it, and an interrupted fallback resumes
    from its last snapshot.  With exact arithmetic (not checkpointable)
    the plain serial driver runs instead.
    """
    from repro.core.checkpoint import checkpointed_nullspace_algorithm  # noqa: PLC0415
    from repro.core.serial import nullspace_algorithm  # noqa: PLC0415

    ctx = RunContext.ensure(context, options=options)
    dry_memory = None
    if ctx.memory_model is not None:
        dry_memory = ctx.memory_model.fresh()
        dry_memory.enforcing = False
    run_ctx = dataclasses.replace(ctx, memory_model=dry_memory)

    t0 = time.perf_counter()
    prep = prepare_subset(reduced, spec, options=ctx.options, auto_split=auto_split)
    if prep.problem is None:
        return prep.empty_result(wall_time=time.perf_counter() - t0)

    # The serial drivers build their rank binding without a canonical
    # column map, so the shared memo is bypassed here (a private memo is
    # sound; sharing without col_ids would not be).
    if ctx.options.arithmetic == "float" and checkpoint_path is not None:
        res = checkpointed_nullspace_algorithm(
            prep.problem,
            checkpoint_path,
            checkpoint_every=checkpoint_every,
            stop_row=prep.stop,
            context=run_ctx,
        )
    else:
        res = nullspace_algorithm(
            prep.problem, stop_row=prep.stop, context=run_ctx
        )

    efms = prep.finalize(_float_values(res.modes))
    return SubsetResult(
        spec=spec,
        efms=efms,
        stats=res.stats,
        rank_traces=[],
        wall_time=time.perf_counter() - t0,
        degraded=True,
    )


def _compose_splits(first: SplitRecord, second: SplitRecord) -> SplitRecord:
    """Compose two successive split records into one original->final map."""
    return SplitRecord(
        original=first.original,
        split=second.split,
        split_names=first.split_names + second.split_names,
    )


def combined_parallel(
    reduced: MetabolicNetwork,
    partition: tuple[str, ...] | list[str],
    n_ranks: int,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    backend: BackendName = "sequential",
    pair_strategy: PairStrategyName = "strided",
    memory_model: MemoryModel | None = None,
    subset_ids: list[int] | None = None,
    executor: str = "inline",
    max_workers: int | None = None,
    schedule: str | Sequence[int] = "predicted-peak",
    on_oom: str = "record",
    checkpoint_dir: str | Path | None = None,
    context: RunContext | None = None,
) -> CombinedRunResult:
    """Algorithm 3: solve every subset of the partition independently.

    Subset ordering, dispatch and failure isolation are delegated to the
    :class:`~repro.engine.scheduler.SubproblemScheduler`:

    * ``executor`` — ``"inline"`` (sequential, in-process),
      ``"process-pool"`` (work-stealing worker processes) or ``"spmd"``
      (subsets strided over simulated-MPI ranks); the union is
      bit-identical across all of them.
    * ``schedule`` — ``"predicted-peak"`` (largest predicted footprint
      first), ``"subset-id"``, ``"reverse"``, or an explicit permutation
      of subset indices.
    * ``on_oom`` — ``"record"`` captures a subset's
      :class:`~repro.errors.OutOfMemoryError` in its result (legacy
      behaviour, feeds the adaptive refiner); ``"degrade"`` re-runs the
      subset on the checkpointed serial path so the run still completes.
    * ``checkpoint_dir`` — persist each completed subset; a rerun resumes
      from what finished.

    ``subset_ids`` restricts the run to selected subsets (each subset is an
    independent job in the paper's setting — Table IV runs them as separate
    Blue Gene/P submissions).
    """
    from repro.engine.scheduler import SubproblemScheduler  # noqa: PLC0415

    validate_partition(reduced, tuple(partition))
    specs = enumerate_subsets(tuple(partition))
    if subset_ids is not None:
        specs = [specs[i] for i in subset_ids]
    ctx = RunContext.ensure(context, options=options, memory_model=memory_model)
    if ctx.shared_rank_memo is None:
        ctx.bind_shared_rank_memo(reduced)
    scheduler = SubproblemScheduler(
        reduced,
        specs,
        context=ctx,
        n_ranks=n_ranks,
        backend=backend,
        pair_strategy=pair_strategy,
        executor=executor,
        max_workers=max_workers,
        schedule=schedule,
        on_oom=on_oom,
        checkpoint_dir=checkpoint_dir,
    )
    return scheduler.run()
