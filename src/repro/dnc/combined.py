"""The combined parallel Nullspace Algorithm (Algorithm 3).

For each subset of the divide-and-conquer partition:

1. delete the zero-flux reactions' columns from the reduced stoichiometry
   (line 8);
2. screen the shrunken stoichiometry for blocked reactions
   (:func:`screen_blocked`: three exact rules on the subset's kernel
   basis, derived from the parent's integer kernel as ``K · ker K[Z, :]``;
   no LP, no network rebuilt): if a non-zero-flux reaction is blocked the
   subset is empty and stops here; otherwise the blocked reactions are
   deleted too.  A scheduled run screens the whole partition once, on its
   subset lattice (:func:`screen_subsets`), and hands each surviving
   subset its blocked set;
3. read the shrunken kernel (line 9) off the same derived basis, in the
   ``(I; R)`` form with the non-zero-flux reactions pinned to the bottom
   rows (line 11), without eliminating the stoichiometry again
   (:class:`SubsetColumns`); a reversible split extends the basis by its
   two-cycle;
4. run the combinatorial parallel algorithm (Algorithm 2) up to — but not
   including — the pinned rows (line 14, Proposition 1); on one rank this
   is the serial Algorithm 1 loop, in-process.  Its rank tests run on the
   parent's one rank problem through the shared memo's column map;
5. keep only the columns with non-zero flux in every pinned row — with a
   positive sign where the pinned reaction is irreversible (lines 15–17);
6. re-insert zero rows for the deleted reactions (lines 18–21).

The union over all subsets is the complete EFM set; the subsets are
pairwise disjoint by construction (distinct zero/non-zero patterns).

Row ordering composes per subproblem: the pinned rows sit at the bottom
and the driver's selection window is ``[first_row, stop)``, so under
``ordering="dynamic"`` each subproblem's :class:`RowSelector` re-decides
its own elimination order from its own live mode matrix — always inside
its window, never touching a pinned row — and Proposition 1's argument
(the pinned rows are simply *not processed*) is untouched by the order
in which the window rows fall.

Steps 1–3 and 5–6 are shared by every way of *running* a subproblem
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
import sys
import time
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
# ``build_problem`` has no caller here; it stays importable from this
# module because the end-to-end benchmark's span tracer patches it.
from repro.core.kernel import (  # noqa: F401
    NullspaceProblem,
    build_problem,
    certify_modes,
    problem_from_matrices,
)
from repro.core.state import ModeMatrix, unit_float_rows
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
from repro.efm.splitting import BWD_SUFFIX, FWD_SUFFIX, fold_split_columns
from repro.linalg import modular
from repro.linalg.numeric import INT64_LIMIT
from repro.mpi.spmd import BackendName
from repro.mpi.tracing import CommTrace
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix
from repro.parallel.combinatorial import combinatorial_parallel


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
    #: EFM rows certified exactly (steady state, irreversible signs) when
    #: the subset was solved — every row of ``efms``.
    certified: int = 0
    #: the scheduler's a-priori peak-footprint prediction, when scheduled.
    predicted_peak_bytes: int | None = None
    #: proven empty before enumeration: a non-zero partition reaction is
    #: blocked in the shrunken network (see :func:`screen_subsets`).
    screened: bool = False

    @classmethod
    def empty(
        cls,
        spec: SubsetSpec,
        n_reactions: int,
        *,
        screened: bool = False,
        wall_time: float = 0.0,
    ) -> "SubsetResult":
        """The result of a subset with no EFMs."""
        return cls(
            spec=spec,
            efms=np.zeros((0, n_reactions)),
            stats=None,
            rank_traces=[],
            wall_time=wall_time,
            screened=screened,
        )

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
    #: budget, degraded/resumed counts, the survivors' predicted bytes,
    #: screen counts; see :meth:`SubproblemScheduler.run
    #: <repro.engine.scheduler.SubproblemScheduler.run>`); empty for
    #: directly built results.
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
    def certified(self) -> int:
        """EFM rows certified exactly, over every subset."""
        return sum(s.certified for s in self.subsets)

    @property
    def n_screened(self) -> int:
        """Subsets the blocked-reaction screen proved empty."""
        return sum(s.screened for s in self.subsets)

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


# ---------------------------------------------------------------------------
# Subset kernels, derived from the parent's.
#
# Proposition 1 makes a subset's EFMs the EFMs of ``N[:, keep]``: the
# reduced stoichiometry without the subset's deleted columns ``Z`` (its
# zero partition reactions and the reactions proven blocked).  With ``K``
# an exact integer basis of ``ker N``, ``ker N[:, keep] = (K · ker K[Z,
# :])[keep]`` — the parent's steady states that are zero on ``Z`` — so one
# elimination of the small ``|Z| x d`` matrix ``K[Z, :]`` stands in for
# rebuilding, compressing and eliminating the subset's network.  The
# screen works in the rank problem's integer coordinates (``N`` with each
# column scaled by a positive integer, see
# :func:`~repro.linalg.modular.integer_columns`), where zero patterns,
# proportionality and signs of steady states are those of ``N``; the
# problem basis is scaled back to ``N``'s own coordinates.
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product: int64 while every sum provably fits,
    Python integers otherwise."""
    if a.dtype != object and b.dtype != object:
        if not a.size or not b.size:
            return a @ b
        bound = int(np.abs(a).max()) * int(np.abs(b).max()) * a.shape[1]
        if bound < INT64_LIMIT:
            return a @ b
    return a.astype(object) @ b.astype(object)


def _int_kernel(a: np.ndarray) -> np.ndarray:
    """:func:`~repro.linalg.modular.int_kernel`'s basis, rerun on Python
    integers when int64 would overflow."""
    try:
        return modular.int_kernel(a)[1]
    except OverflowError:
        return modular.int_kernel(a.astype(object))[1]


def _group_ids(rows: np.ndarray) -> np.ndarray:
    """One id per distinct row of an integer matrix."""
    if rows.dtype == object:
        index: dict[tuple, int] = {}
        return np.array(
            [index.setdefault(r, len(index)) for r in map(tuple, rows.tolist())],
            dtype=np.intp,
        )
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(-1)


@dataclasses.dataclass(frozen=True)
class SubsetColumns:
    """A subset's stoichiometry and exact kernel basis, column by column.

    ``n`` is the subset's stoichiometry as its own network would read it
    (the metabolite rows its reactions touch, the surviving columns in
    reduced-network order), ``basis`` an exact integer basis of ``ker n``
    and ``col_ids`` / ``col_sign`` each column's reduced-network column
    and orientation (``-1`` on the backward half of a split reaction).
    """

    n: np.ndarray
    reversible: np.ndarray
    names: tuple[str, ...]
    basis: np.ndarray
    col_ids: np.ndarray
    col_sign: np.ndarray

    @property
    def q(self) -> int:
        return len(self.names)

    def problem(
        self, options: AlgorithmOptions, force_last: Sequence[str]
    ) -> NullspaceProblem:
        """The pinned problem, read off :attr:`basis`; raises what
        :func:`~repro.core.kernel.problem_from_matrices` raises."""
        return problem_from_matrices(
            self.n,
            self.reversible,
            self.names,
            options=options,
            force_last=force_last,
            basis=self.basis,
        )

    def split(self, names: Iterable[str]) -> "SubsetColumns":
        """Split the named reversible reactions into irreversible
        forward/backward halves, as
        :func:`~repro.efm.splitting.split_reversible` does to a network.

        ``ker [.., n_r, -n_r, ..]`` is ``ker n`` with ``r``'s flux on the
        forward half, plus the two-cycle ``e_f + e_b``: the backward rows
        of the basis are zero and one column per split is appended."""
        chosen = set(names)
        is_split = np.array([nm in chosen for nm in self.names], dtype=bool)
        src = np.repeat(np.arange(self.q), 1 + is_split)
        bwd = np.zeros(src.size, dtype=bool)
        bwd[1:] = src[1:] == src[:-1]
        halves = is_split[src]
        n = self.n[:, src]
        n[:, bwd] = 0.0 - n[:, bwd]
        basis = self.basis[src]
        basis[bwd] = 0
        fwd = np.flatnonzero(halves & ~bwd)
        cycles = np.zeros((src.size, fwd.size), dtype=basis.dtype)
        cycles[fwd, np.arange(fwd.size)] = 1
        cycles[fwd + 1, np.arange(fwd.size)] = 1
        names_out = tuple(
            self.names[j] + (BWD_SUFFIX if b else FWD_SUFFIX if h else "")
            for j, h, b in zip(src.tolist(), halves.tolist(), bwd.tolist())
        )
        return SubsetColumns(
            n=n,
            reversible=self.reversible[src] & ~halves,
            names=names_out,
            basis=np.hstack([basis, cycles]),
            col_ids=self.col_ids[src],
            col_sign=np.where(bwd, -self.col_sign[src], self.col_sign[src]),
        )


class ParentKernel:
    """The parent (reduced) network's exact stoichiometry and kernel.

    ``problem`` is the reduced stoichiometry's rank problem, ``kernel``
    its gcd-reduced basis of ``ker n_int`` (``(q, d)``, reduced-network
    column order), ``n_int`` the integer stoichiometry with column scales
    ``scales`` and ``n`` the float stoichiometry the subset problems are
    built from.  A run builds one, with its shared rank memo
    (:meth:`~repro.engine.context.RunContext.bind_shared_rank_memo`).
    """

    def __init__(self, reduced: MetabolicNetwork) -> None:
        self.names = reduced.reaction_names
        self.index = {name: j for j, name in enumerate(self.names)}
        self.reversible = np.array(reduced.reversibility, dtype=bool)
        self.n = stoichiometric_matrix(reduced)
        self.problem = prob = modular.problem_for(self.n)
        self.n_int = prob.n_int
        self.scales = prob.scales
        if prob.b_int is not None:
            self.kernel = np.ascontiguousarray(prob.b_int.T)
        else:  # the rank problem keeps no int64 basis: build it on Python ints
            self.kernel = _int_kernel(prob.n_int.astype(object))

    @property
    def q(self) -> int:
        return len(self.names)

    def mask(self, names: Iterable[str]) -> np.ndarray:
        """Boolean column mask of named reactions."""
        out = np.zeros(self.q, dtype=bool)
        out[[self.index[name] for name in names]] = True
        return out

    def subspace(self, gone: np.ndarray) -> np.ndarray:
        """``B = K · ker K[gone, :]``: a ``(q, d')`` integer basis of the
        steady states that are zero on the ``gone`` columns (whose rows
        of ``B`` are zero)."""
        kz = self.kernel[gone]
        if not kz.shape[0]:
            return self.kernel
        return _matmul(self.kernel, _int_kernel(kz))

    def blocked(self, gone: np.ndarray) -> np.ndarray:
        """The blocked-reaction screen of the subset that deletes the
        ``gone`` columns: the mask of the other columns proven zero in
        every steady state.

        Three exact rules, each adding what it blocks to ``gone``, to a
        fixpoint.  ``B`` is re-derived after a round in which (b) or (c)
        blocked a reaction; a round in which only (a) did ends the
        screen, because deleting zero rows leaves ``B`` as it is.

        (a) a reaction whose row of ``B`` is zero is blocked;
        (b) reactions with proportional rows of ``B`` are fully coupled,
            ``v_i = λ_i · t`` for one free scalar ``t`` per group: an
            irreversible member fixes the sign of ``t``, two that fix
            opposite signs block the whole group, and otherwise every
            member takes the orientation ``sign(λ_i · t)``;
        (c) a metabolite row whose coupled groups (coefficients summed
            within each group) are all oriented, with every oriented
            coefficient of one sign, blocks every group it touches.
        """
        gone = gone.copy()
        start = gone.copy()
        while True:
            b = self.subspace(gone)
            zero, coupled = self._rules(b, gone)
            gone |= zero | coupled
            if not coupled.any():
                return gone & ~start

    def _rules(
        self, b: np.ndarray, gone: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One round of rules (a)-(c) on the derived basis ``b``: what (a)
        blocks, and what (b) and (c) block."""
        live = ~gone & (b != 0).any(axis=1)
        zero = ~gone & ~live  # (a)
        new = np.zeros_like(zero)
        idx = np.flatnonzero(live)
        if not idx.size:
            return zero, new
        rows = b[idx]
        # (b) Row i is lam_i times its group's primitive row (positive
        # leading entry), so v_i = lam_i * t_group in every steady state.
        g = np.gcd.reduce(rows, axis=1)
        lead = rows[np.arange(idx.size), (rows != 0).argmax(axis=1)]
        lam = np.where(lead < 0, -g, g)
        grp = _group_ids(rows // lam[:, None])
        n_groups = int(grp.max()) + 1
        irr = ~self.reversible[idx]
        up = lam > 0
        t_pos = np.bincount(grp[irr & up], minlength=n_groups) > 0
        t_neg = np.bincount(grp[irr & ~up], minlength=n_groups) > 0
        conflict = t_pos & t_neg
        new[idx[conflict[grp]]] = True
        # Sign of t per group: +1 (t >= 0), -1 (t <= 0), 0 (free, or a
        # conflict group, which the next round deletes).
        orient = np.where(conflict, 0, t_pos.astype(np.int8) - t_neg)
        # (c) Metabolite balances over the groups: sum_g c_g * t_g = 0.
        lam_mat = np.zeros((idx.size, n_groups), dtype=lam.dtype)
        lam_mat[np.arange(idx.size), grp] = lam
        c = _matmul(self.n_int[:, idx], lam_mat)
        nz = c != 0
        signed = c * orient  # c_g * sign(t_g): zero on free groups
        free = (nz & (orient == 0)).any(axis=1)
        fire = ~free & ((signed > 0).any(axis=1) ^ (signed < 0).any(axis=1))
        new[idx[nz[fire].any(axis=0)[grp]]] = True
        return zero, new

    def columns(self, gone: np.ndarray) -> SubsetColumns:
        """The subset's stoichiometry and derived basis once the ``gone``
        columns are deleted."""
        keep = np.flatnonzero(~gone)
        basis = self.subspace(gone)[keep]
        if any(s != 1 for s in self.scales):
            # ker N = diag(scales) · ker n_int.
            scales = np.array(self.scales, dtype=object)[keep]
            basis = basis.astype(object) * scales[:, None]
        sub = self.n[:, keep]
        return SubsetColumns(
            n=sub[sub.any(axis=1)],
            reversible=self.reversible[keep],
            names=tuple(self.names[j] for j in keep.tolist()),
            basis=basis,
            col_ids=keep.astype(np.int64),
            col_sign=np.ones(keep.size, dtype=np.int64),
        )


def screen_blocked(parent: ParentKernel, gone: Iterable[str]) -> frozenset[str]:
    """Names of the reactions :meth:`ParentKernel.blocked` proves zero in
    every steady state once the reactions ``gone`` are deleted."""
    blocked = parent.blocked(parent.mask(gone))
    return frozenset(parent.names[j] for j in np.flatnonzero(blocked).tolist())


def parent_kernel(
    reduced: MetabolicNetwork, context: RunContext | None = None
) -> ParentKernel:
    """The run's :class:`ParentKernel` of ``reduced``: the one the
    context's shared rank memo carries, or, with none bound, a new one."""
    if context is not None and context.shared_rank_memo is not None:
        return context.shared_rank_memo[2]
    return ParentKernel(reduced)


@dataclasses.dataclass
class PreparedSubset:
    """Lines 8–14 of Algorithm 3, ready to run: the shrunken problem with
    partition reactions pinned, plus everything
    :meth:`finalize` needs to map the run's modes back to the reduced
    network (lines 15–21).

    ``problem`` is ``None`` for structurally empty subsets: the shrunken
    stoichiometry admits no flux at all, or (``screened``) a non-zero
    partition reaction is blocked in it.
    """

    spec: SubsetSpec
    reduced: MetabolicNetwork
    problem: NullspaceProblem | None
    #: first pinned row — Proposition 1's early-stop position (== the full
    #: ``q`` when the dependent-partition fallback enumerates everything).
    stop: int
    #: full enumeration + filtering instead of the pinned early stop.
    fallback: bool
    force_last: tuple[str, ...]
    #: reduced-network column id per problem position (the shared rank
    #: memo's column map and the fold target), ``None`` for empty subsets.
    col_ids: np.ndarray | None
    #: per problem position, ``-1`` on the backward half of a reversible
    #: split; ``None`` when nothing was split.
    col_sign: np.ndarray | None = None
    screened: bool = False

    @classmethod
    def structurally_empty(
        cls,
        spec: SubsetSpec,
        reduced: MetabolicNetwork,
        *,
        screened: bool = False,
    ) -> "PreparedSubset":
        """The prepared form of a subset that has no EFMs."""
        return cls(
            spec=spec,
            reduced=reduced,
            problem=None,
            stop=0,
            fallback=False,
            force_last=spec.nonzero,
            col_ids=None,
            screened=screened,
        )

    @property
    def q_red(self) -> int:
        return self.reduced.n_reactions

    def empty_result(self, wall_time: float = 0.0) -> SubsetResult:
        return SubsetResult.empty(
            self.spec, self.q_red, screened=self.screened, wall_time=wall_time
        )

    def finalize(self, modes: ModeMatrix) -> tuple[np.ndarray, int]:
        """Lines 15–21: filter by the pinned rows' sign pattern, certify
        the kept integer modes (:func:`~repro.core.kernel.certify_modes`),
        fold any reversible splits and scatter the columns back to the
        reduced network's, whose deleted reactions stay zero.

        Returns the EFM rows (float64, unit max-norm) and how many of them
        were certified — all of them, or certification raises."""
        problem = self.problem
        assert problem is not None and self.col_ids is not None
        # Lines 15–17: keep columns with non-zero flux in every pinned row
        # (strictly positive where the pinned reaction is irreversible: a
        # negative flux there can never be part of a valid EFM, and the
        # candidates that would have zeroed it belong to other subsets).
        if not self.fallback:
            keep = np.ones(modes.n_modes, dtype=bool)
            for pos in range(self.stop, problem.q):
                v = modes.values[:, pos]
                keep &= (v != 0) if problem.reversible[pos] else (v > 0)
            modes = modes.select(np.flatnonzero(keep))
        certify_modes(problem, modes)
        # Lines 18–21: back to the reduced network's full reaction set.
        if self.col_sign is None:
            efms = np.zeros((modes.n_modes, self.q_red))
            efms[:, self.col_ids] = modes.float_values()
        else:
            # Fold the exact rows, then convert.
            irreversible = ~np.array(self.reduced.reversibility, dtype=bool)
            efms = unit_float_rows(
                fold_split_columns(
                    modes.values, self.col_ids, self.col_sign, irreversible
                )
            )
        if self.fallback:
            # Full enumeration ran: filter the finished (hence
            # sign-feasible) EFMs by the non-zero pattern instead of by
            # pinned rows.
            keep = np.ones(efms.shape[0], dtype=bool)
            for name in self.force_last:
                keep &= efms[:, self.reduced.reaction_index(name)] != 0.0
            efms = efms[keep]
        return efms, efms.shape[0]


def _debug(msg: str, *args) -> None:
    # A program that has not imported ``logging`` has no handler that
    # could receive this DEBUG record (an unconfigured root logger drops
    # it), so importing ``logging`` here, about 6 ms, would buy nothing.
    logging = sys.modules.get("logging")
    if logging is None:
        return
    logging.getLogger(__name__).debug(msg, *args)


def _log_screened(spec: SubsetSpec, hit: Sequence[str]) -> None:
    _debug("subset %s screened empty: %s blocked", spec.label(), ", ".join(hit))


def screen_subsets(
    reduced: MetabolicNetwork,
    specs: Sequence[SubsetSpec],
    *,
    context: RunContext | None = None,
) -> tuple[list[frozenset[str]], int]:
    """Blocked-reaction screen of every subset, in one pass over the
    subset lattice.

    Returns each subset's blocked reactions (its own zero reactions
    excluded) in ``specs`` order, and how many
    :func:`screen_blocked` calls it took.  A subset
    whose blocked set holds one of its non-zero partition reactions is
    empty; every other subset passes its set to :func:`prepare_subset` as
    ``blocked``.

    A reaction blocked with zero set ``Z0`` deleted stays blocked for
    every ``Z ⊇ Z0``: deleting columns only shrinks the flux cone, and the
    screen's rules are monotone under deletion (DESIGN.md §15).  So the
    specs are visited by ascending ``|Z|`` and each inherits the union of
    the blocked sets of the visited ``Z0 ⊂ Z``.  If that union already
    blocks a non-zero partition reaction the subset is screened without
    any work; otherwise ``screen_blocked`` runs once, with ``Z`` and the
    inherited set deleted.  The screen runs on the ``context``'s
    :class:`ParentKernel` (:func:`parent_kernel`).
    """
    parent = parent_kernel(reduced, context)
    zeros = [frozenset(spec.zero) for spec in specs]
    out: list[frozenset[str]] = [frozenset()] * len(specs)
    visited: list[int] = []
    n_computed = 0
    for i in sorted(range(len(specs)), key=lambda k: (len(zeros[k]), k)):
        z = zeros[i]
        blocked = set()
        for j in visited:
            if zeros[j] < z:
                blocked |= out[j]
        blocked -= z
        hit = [r for r in specs[i].nonzero if r in blocked]
        if not hit:
            blocked |= screen_blocked(parent, z | blocked)
            n_computed += 1
            hit = [r for r in specs[i].nonzero if r in blocked]
        if hit:
            _log_screened(specs[i], hit)
        out[i] = frozenset(blocked)
        visited.append(i)
    return out, n_computed


def prepare_subset(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    auto_split: bool = True,
    blocked: frozenset[str] | None = None,
    context: RunContext | None = None,
) -> PreparedSubset:
    """Build one subset's pinned subproblem (lines 8–14) from the parent's
    integer kernel (the ``context``'s :class:`ParentKernel`, see
    :func:`parent_kernel`).

    Before any problem is built, the shrunken stoichiometry is screened
    for blocked reactions: a blocked non-zero partition reaction proves
    the subset empty (``screened``), and the other blocked reactions are
    deleted along with the zero set.  ``blocked`` is the subset's entry
    from :func:`screen_subsets`; when it is ``None``,
    :func:`screen_blocked` screens this one subset in place.

    Auto-splits reversible reactions that cannot be pivots in the
    shrunken stoichiometry.  Partition reactions carry pivot priority; if
    one is still linearly dependent (reversible only), Proposition 1's
    early stop is unsound for this subset and the prepared problem falls
    back to full enumeration of the subnetwork plus filtering.  Both
    retries are logged at DEBUG.
    """
    validate_partition(reduced, spec.partition)
    force_last = list(spec.nonzero)
    parent = parent_kernel(reduced, context)
    # Blocked-reaction screen: a pinned reaction that is zero in every
    # steady state of the shrunken stoichiometry empties the subset; any
    # other blocked reaction is deleted along with the zero set
    # (Proposition 1 is unaffected: deleting a column that is zero in
    # every EFM leaves the EFM set unchanged).
    if blocked is None:
        blocked = screen_blocked(parent, spec.zero)
    hit = [r for r in force_last if r in blocked]
    if hit:
        _log_screened(spec, hit)
        return PreparedSubset.structurally_empty(spec, reduced, screened=True)

    cols = parent.columns(parent.mask(set(spec.zero) | blocked))
    split = False
    fallback = False
    problem: NullspaceProblem | None = None
    for _ in range(2 * reduced.n_reactions + 2):
        try:
            problem = cols.problem(options, () if fallback else force_last)
            break
        except DependentPartitionError:
            _debug(
                "subset %s: partition reactions are linearly dependent; "
                "full enumeration and filtering",
                spec.label(),
            )
            fallback = True
        except ReversibleIdentityError as exc:
            if not auto_split:
                raise
            _debug(
                "subset %s: splitting reversible %s",
                spec.label(),
                ", ".join(exc.reactions),
            )
            split = True
            cols = cols.split(exc.reactions)
        except NoModesError:
            # The shrunken stoichiometry admits no flux at all: empty subset.
            return PreparedSubset.structurally_empty(spec, reduced)
    else:  # pragma: no cover - each retry strictly reduces failure modes
        raise PartitionError(f"subset {spec.label()}: splitting did not converge")

    assert problem is not None
    return PreparedSubset(
        spec=spec,
        reduced=reduced,
        problem=problem,
        stop=problem.q if fallback else problem.q - len(force_last),
        fallback=fallback,
        force_last=tuple(force_last),
        col_ids=cols.col_ids[problem.perm],
        col_sign=cols.col_sign[problem.perm] if split else None,
    )


def solve_subset(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    n_ranks: int,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    backend: BackendName = "sequential",
    memory_model: MemoryModel | None = None,
    auto_split: bool = True,
    context: RunContext | None = None,
    blocked: frozenset[str] | None = None,
) -> SubsetResult:
    """Solve one subset's subproblem with Algorithm 2 (lines 3–22).

    The context's shared rank memo (see
    :meth:`~repro.engine.context.RunContext.bind_shared_rank_memo`)
    shares support-pattern rank results with the run's other subproblems;
    keys are canonical reduced-network column sets, so differing
    permutations, deletions and reversible splits all address the same
    entries.  ``blocked`` is passed on to :func:`prepare_subset`.
    """
    ctx = RunContext.ensure(context, options=options, memory_model=memory_model)
    t0 = time.perf_counter()
    prep = prepare_subset(
        reduced,
        spec,
        options=ctx.options,
        auto_split=auto_split,
        blocked=blocked,
        context=ctx,
    )
    if prep.problem is None:
        return prep.empty_result(wall_time=time.perf_counter() - t0)

    binding = ctx.rank_binding_for(prep.problem, prep.col_ids)
    try:
        run = combinatorial_parallel(
            prep.problem,
            n_ranks,
            backend=backend,
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

    efms, certified = prep.finalize(run.result.modes)
    return SubsetResult(
        spec=spec,
        efms=efms,
        certified=certified,
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
    blocked: frozenset[str] | None = None,
) -> SubsetResult:
    """Solve one subset on the checkpointed serial path (degraded mode).

    The scheduler's failure-isolation fallback: when Algorithm 2 on a
    subset exceeds the modeled node memory, the subset re-runs here —
    serial Algorithm 1 with periodic snapshots, memory accounting in
    recording (non-enforcing) mode — so one oversized subset slows the
    run down instead of aborting it, and an interrupted fallback resumes
    from its last snapshot (without a ``checkpoint_path``, the plain
    serial driver runs instead).  ``blocked`` is passed on to
    :func:`prepare_subset`.
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
    prep = prepare_subset(
        reduced,
        spec,
        options=ctx.options,
        auto_split=auto_split,
        blocked=blocked,
        context=ctx,
    )
    if prep.problem is None:
        return prep.empty_result(wall_time=time.perf_counter() - t0)

    # The serial drivers build their rank binding without a canonical
    # column map, so the shared memo is bypassed here (a private memo is
    # sound; sharing without col_ids would not be).
    if checkpoint_path is not None:
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

    efms, certified = prep.finalize(res.modes)
    return SubsetResult(
        spec=spec,
        efms=efms,
        certified=certified,
        stats=res.stats,
        rank_traces=[],
        wall_time=time.perf_counter() - t0,
        degraded=True,
    )


def combined_parallel(
    reduced: MetabolicNetwork,
    partition: tuple[str, ...] | list[str],
    n_ranks: int,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    backend: BackendName = "sequential",
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

    * ``executor`` — ``"inline"`` (sequential, in-process) or
      ``"process-pool"`` (work-stealing worker processes); the union is
      bit-identical across both.
    * ``schedule`` — ``"predicted-peak"`` (largest predicted footprint
      first) or an explicit permutation of subset indices.
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
        executor=executor,
        max_workers=max_workers,
        schedule=schedule,
        on_oom=on_oom,
        checkpoint_dir=checkpoint_dir,
    )
    return scheduler.run()
