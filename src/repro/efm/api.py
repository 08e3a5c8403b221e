"""One-call EFM computation: ``compute_efms(network, ...)``.

Chains the full pipeline of the paper: network compression (§II.C), kernel
construction in ``(I; R)`` form with the processing heuristics, the chosen
algorithm (serial Algorithm 1, combinatorial parallel Algorithm 2,
column-partitioned variant, or the combined divide-and-conquer Algorithm
3), reversible-splitting fallbacks, and expansion of the results back to
the original reaction space (merged reactions unfolded, blocked reactions
zero, compression-time singleton EFMs appended).
"""

from __future__ import annotations

from typing import Literal, Sequence, get_args

import numpy as np

from pathlib import Path

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.kernel import NullspaceProblem, build_problem, certify_modes
from repro.core.serial import nullspace_algorithm
from repro.core.state import ModeMatrix, unit_float_rows
from repro.core.stats import RunStats
from repro.cluster.memory import MemoryModel
from repro.dnc.combined import combined_parallel
from repro.engine.context import RunContext
from repro.dnc.selection import select_partition_reactions
from repro.efm.result import EFMResult
from repro.efm.splitting import SplitRecord, split_reversible
from repro.errors import (
    AlgorithmError,
    NoModesError,
    PartitionError,
    ReversibleIdentityError,
)
from repro.mpi.spmd import BackendName
from repro.network.compression import CompressionRecord, compress_network
from repro.network.model import MetabolicNetwork
from repro.parallel.combinatorial import combinatorial_parallel

Method = Literal["serial", "parallel", "distributed", "combined"]


def compute_efms(
    network: MetabolicNetwork,
    *,
    method: Method = "serial",
    n_ranks: int = 1,
    backend: BackendName = "sequential",
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    compress: bool = True,
    auto_split: bool = True,
    partition: Sequence[str] | int | None = None,
    memory_model: MemoryModel | None = None,
    executor: str = "inline",
    max_workers: int | None = None,
    checkpoint_path: str | Path | None = None,
    context: RunContext | None = None,
) -> EFMResult:
    """Compute all elementary flux modes of ``network``.

    Parameters
    ----------
    method:
        ``"serial"`` — Algorithm 1; ``"parallel"`` — Algorithm 2 on
        ``n_ranks`` simulated ranks; ``"distributed"`` — the
        column-partitioned variant (the same loop, with the mode matrix
        sharded across the ranks instead of replicated); ``"combined"`` —
        Algorithm 3 (divide-and-conquer over ``partition``).
    compress:
        Run the lossless network reduction first (recommended; the paper
        always does).
    auto_split:
        Automatically split reversible reactions that cannot be kernel
        pivots (see :mod:`repro.efm.splitting`); with ``False`` such
        networks raise :class:`~repro.errors.ReversibleIdentityError`.
    partition:
        For ``method="combined"``: either explicit *reduced-network*
        reaction names (bottom row last) or an integer ``q_sub`` to select
        automatically (:func:`repro.dnc.selection.select_partition_reactions`,
        ``method="tail"``).
    memory_model:
        Optional per-rank memory cap (modeled); see
        :class:`repro.cluster.memory.MemoryModel`.  For
        ``method="combined"``, a subset that exceeds it is split by one
        more reaction, up to
        :data:`~repro.engine.scheduler.MAX_REFINE_DEPTH` times; one still
        out of memory then raises :class:`~repro.errors.AlgorithmError`
        naming it.
    executor, max_workers:
        For ``method="combined"``: how the subproblem scheduler dispatches
        the subsets — ``"inline"`` or ``"process-pool"`` (OS worker
        processes with work stealing); the EFM set is bit-identical
        across both.  See
        :class:`repro.engine.scheduler.SubproblemScheduler`.
    checkpoint_path:
        ``method="serial"``: snapshot ``.npz`` the Nullspace loop writes
        and resumes from.  ``method="combined"``: scheduler checkpoint *directory*
        — completed subsets persist and a rerun resumes from them.
    context:
        A pre-built :class:`~repro.engine.context.RunContext`; overrides
        ``options``/``memory_model``/``checkpoint_path``.

    Returns
    -------
    EFMResult
        Modes in the original network's reaction order.  Every mode is
        certified exactly before it is emitted (integer steady state and
        irreversible signs, see :func:`repro.core.kernel.certify_modes`;
        singleton modes against the exact compression record), and
        ``meta["certified"]`` counts the certified modes; a failing mode
        raises :class:`~repro.errors.AlgorithmError`.
    """
    if method not in get_args(Method):
        raise AlgorithmError(f"unknown method {method!r}")
    if method == "serial" and n_ranks != 1:
        raise AlgorithmError("serial method runs on exactly 1 rank")
    ctx = context if context is not None else RunContext(
        options=options,
        memory_model=memory_model,
        checkpoint_path=checkpoint_path,
    )
    options = ctx.options
    if compress:
        rec = compress_network(network)
    else:
        rec = _identity_record(network)
    reduced = rec.reduced

    meta: dict = {"compression": rec.summary(), "backend": backend}
    # A reduced network without reactions, or whose kernel construction
    # reports a trivial nullspace, admits no steady-state flux: its mode set
    # is empty and only the compression singletons below remain.
    efms_reduced = np.zeros((0, reduced.n_reactions))
    certified = 0
    stats = None
    try:
        if reduced.n_reactions == 0:
            pass
        elif method == "combined":
            part = _resolve_partition(reduced, partition, options)
            meta["partition"] = part
            run = combined_parallel(
                reduced,
                part,
                n_ranks,
                backend=backend,
                executor=executor,
                max_workers=max_workers,
                context=ctx,
            )
            if not run.complete:
                from repro.engine.scheduler import MAX_REFINE_DEPTH  # noqa: PLC0415

                failed = [
                    f"[{s.spec.label()}] at iteration {s.oom.iteration}"
                    for s in run.subsets
                    if not s.completed
                ]
                raise AlgorithmError(
                    "divide-and-conquer subsets still exceed memory with "
                    f"{MAX_REFINE_DEPTH} reactions added: {', '.join(failed)}"
                )
            efms_reduced = run.efms()
            certified = run.certified
            meta["executor"] = executor
            meta["scheduler"] = run.meta
            meta["subsets"] = [
                (s.spec.label(), s.n_efms, s.n_candidates) for s in run.subsets
            ]
            meta["total_candidates"] = run.total_candidates
            meta["n_screened"] = run.n_screened
            del run  # the subsets' own EFM rows
        else:
            problem, split_rec = build_problem_with_split(reduced, options, auto_split)
            modes, stats = _enumerate(method, problem, ctx, n_ranks, backend)
            certify_modes(problem, modes)
            # Each array is dropped as soon as its successor exists: the
            # mode matrix once folded (or converted), the folded integer
            # rows once converted.
            values = modes.values
            del modes
            if split_rec is not None:
                meta["split"] = split_rec.split_names
                # Fold the exact rows, then convert once.
                values = split_rec.fold_modes(values, problem.inverse_perm())
                efms_reduced = _reorder_to(
                    unit_float_rows(values), split_rec.original, reduced
                )
            else:
                efms_reduced = unit_float_rows(values, problem.inverse_perm())
            del values
            # Folding a split drops two-cycle artifacts; every row left
            # derives from a certified mode.
            certified = efms_reduced.shape[0]
    except NoModesError:
        pass
    meta["certified"] = certified + _certify_singletons(rec)

    # Expand straight into the output rows, singleton EFMs appended, then
    # canonicalize them in place: the finish never holds more than two
    # arrays of the output's size.
    n_modes = efms_reduced.shape[0]
    singles = rec.singleton_flux_matrix()
    full = np.empty((n_modes + singles.shape[1], network.n_reactions))
    if n_modes:
        rec.expand_fluxes(efms_reduced.T, out=full[:n_modes].T)
    del efms_reduced
    full[n_modes:] = singles.T
    result = EFMResult(network=network, fluxes=full, method=method, stats=stats, meta=meta)
    del full
    return result.canonical(in_place=True)


def _enumerate(
    method: Method,
    problem: NullspaceProblem,
    ctx: RunContext,
    n_ranks: int,
    backend: BackendName,
) -> tuple[ModeMatrix, RunStats]:
    """Run the unsplit enumeration ``method`` and return its final mode
    matrix and statistics; the run's other results die on return."""
    if method == "serial":
        res = nullspace_algorithm(
            problem, context=ctx, checkpoint_path=ctx.checkpoint_path
        )
        return res.modes, res.stats
    run = combinatorial_parallel(
        problem,
        n_ranks,
        backend=backend,
        context=ctx,
        sharded=method == "distributed",
    )
    return run.result.modes, run.stats


def _certify_singletons(rec: CompressionRecord) -> int:
    """Exactly check the compression-time singleton modes (steady state
    in the original network's rational stoichiometry, irreversible fluxes
    ``>= 0``) and return how many there are."""
    net = rec.original
    for k, single in enumerate(rec.singletons):
        balance: dict[str, object] = {}
        for name, flux in single.fluxes.items():
            rxn = net.reaction(name)
            if flux < 0 and not rxn.reversible:
                raise AlgorithmError(
                    f"singleton mode {k} runs irreversible {name!r} backwards"
                )
            for met, coeff in rxn.stoich.items():
                balance[met] = balance.get(met, 0) + flux * coeff
        if any(balance.values()):
            raise AlgorithmError(
                f"singleton mode {k} ({sorted(single.fluxes)}) is not a "
                "steady state: certification failed"
            )
    return len(rec.singletons)


def _identity_record(network: MetabolicNetwork) -> CompressionRecord:
    """A no-op compression record (compress=False path)."""
    from fractions import Fraction

    q = network.n_reactions
    expansion = [
        [Fraction(1) if i == j else Fraction(0) for j in range(q)] for i in range(q)
    ]
    return CompressionRecord(
        original=network,
        reduced=network,
        expansion=expansion,
        blocked=(),
        singletons=(),
        merged_groups={r.name: (r.name,) for r in network.reactions},
    )


def build_problem_with_split(
    reduced: MetabolicNetwork,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    auto_split: bool = True,
) -> tuple["NullspaceProblem", SplitRecord | None]:
    """Build the kernel problem, splitting reversible reactions that cannot
    be pivots until construction succeeds.  Returns ``(problem,
    split_record)`` with ``split_record=None`` when no split was needed.
    """
    split_rec: SplitRecord | None = None
    work = reduced
    for _ in range(reduced.n_reactions + 1):
        try:
            return build_problem(work, options=options), split_rec
        except ReversibleIdentityError as exc:
            if not auto_split:
                raise
            rec = split_reversible(work, exc.reactions)
            if split_rec is None:
                split_rec = rec
            else:
                split_rec = SplitRecord(
                    original=split_rec.original,
                    split=rec.split,
                    split_names=split_rec.split_names + rec.split_names,
                )
            work = rec.split
    raise AlgorithmError("reversible splitting did not converge")  # pragma: no cover


def _reorder_to(
    modes: np.ndarray, src: MetabolicNetwork, dst: MetabolicNetwork
) -> np.ndarray:
    """Reorder mode columns from ``src`` order to ``dst`` order (same
    reaction name sets)."""
    if src.reaction_names == dst.reaction_names:
        return modes
    out = np.zeros((modes.shape[0], dst.n_reactions))
    for j, name in enumerate(src.reaction_names):
        out[:, dst.reaction_index(name)] = modes[:, j]
    return out


def _resolve_partition(
    reduced: MetabolicNetwork,
    partition: Sequence[str] | int | None,
    options: AlgorithmOptions,
) -> tuple[str, ...]:
    if partition is None:
        raise PartitionError(
            "method='combined' needs partition=<names or q_sub integer>"
        )
    if isinstance(partition, int):
        return select_partition_reactions(reduced, partition, options=options)
    return tuple(partition)
