"""Experiment runners regenerating the paper's evaluation tables.

Each function executes the real algorithms on a (tractable) workload,
collects the exact work counters the paper reports, and renders a table
with the same columns.  Wall-clock columns are *modeled* platform seconds
(see :mod:`repro.bench.modeling`), so a regenerated table depends only on
the work counts, never on the host's timing.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.bench.modeling import ModeledTimes, model_run
from repro.bench.tables import Table, fmt_count, fmt_seconds
from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.cluster.memory import MemoryModel
from repro.cluster.platform import CALHOUN, BLUE_GENE_P, PlatformSpec
from repro.dnc.combined import combined_parallel
from repro.dnc.selection import select_partition_reactions
from repro.errors import ReproError
from repro.efm.api import build_problem_with_split
from repro.models.registry import get_network
from repro.mpi.spmd import BackendName
from repro.network.compression import compress_network
from repro.parallel.combinatorial import ParallelRunResult, combinatorial_parallel

#: Job shapes mimicking Table II's header (nodes x cores-per-node).
TABLE2_SHAPES: dict[int, tuple[int, int]] = {
    1: (1, 1),
    2: (2, 1),
    4: (1, 4),
    8: (1, 8),
    16: (4, 4),
    32: (8, 4),
    64: (16, 4),
}


@dataclasses.dataclass
class Table2Run:
    """One column of Table II."""

    n_cores: int
    n_nodes: int
    cores_per_node: int
    modeled: ModeledTimes
    total_candidates: int
    n_efms: int


def _prepare(network_name: str, options: AlgorithmOptions):
    network = get_network(network_name)
    rec = compress_network(network)
    problem, split_rec = build_problem_with_split(rec.reduced, options)
    return network, rec, problem, split_rec


def _folded_efm_count(prun: ParallelRunResult, split_rec) -> int:
    """EFM count with reversible-split artifacts folded away."""
    if split_rec is None:
        return prun.result.n_efms
    res = prun.result
    folded = split_rec.fold_modes(res.modes.values, res.problem.inverse_perm())
    return int(folded.shape[0])


def run_table2(
    network_name: str = "yeast-I-small",
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    platform: PlatformSpec = CALHOUN,
    backend: BackendName = "sequential",
    options: AlgorithmOptions = DEFAULT_OPTIONS,
) -> tuple[Table, list[Table2Run]]:
    """Table II: combinatorial parallel Algorithm 2 strong scaling.

    Runs the identical problem at every core count; candidate counts are
    invariant, per-phase modeled times shrink with cores, communicate and
    merge grow — the paper's shape.
    """
    network, _rec, problem, split_rec = _prepare(network_name, options)
    runs: list[Table2Run] = []
    for cores in core_counts:
        nodes, per_node = TABLE2_SHAPES.get(cores, (cores, 1))
        prun: ParallelRunResult = combinatorial_parallel(
            problem, cores, options=options, backend=backend
        )
        runs.append(
            Table2Run(
                n_cores=cores,
                n_nodes=nodes,
                cores_per_node=per_node,
                modeled=model_run(prun.rank_stats, prun.rank_traces, platform),
                total_candidates=prun.stats.total_candidates,
                n_efms=_folded_efm_count(prun, split_rec),
            )
        )

    table = Table(
        title=(
            f"Table II analog — Algorithm 2 on {network.name!r} "
            f"({platform.name} model)"
        ),
        columns=["row"] + [str(r.n_cores) for r in runs],
    )
    table.add_row("# nodes", *[r.n_nodes for r in runs])
    table.add_row("# cores per node", *[r.cores_per_node for r in runs])
    table.add_row("total # cores", *[r.n_cores for r in runs])
    mem = platform.memory_per_node
    table.add_row(
        "memory per core",
        *[f"{mem / r.cores_per_node / 1024**3:.2g}gb" for r in runs],
    )
    table.add_row("gen. cand (sec)", *[r.modeled.gen_cand for r in runs])
    table.add_row("rank test (sec)", *[r.modeled.rank_test for r in runs])
    table.add_row("communicate (sec)", *[r.modeled.communicate for r in runs])
    table.add_row("merge (sec)", *[r.modeled.merge for r in runs])
    table.add_row("total time (sec)", *[r.modeled.total for r in runs])
    table.add_footer(
        f"Total # candidate modes: {fmt_count(runs[0].total_candidates)}"
    )
    table.add_footer(f"Total # EFM: {fmt_count(runs[0].n_efms)}")
    return table, runs


#: Empirically good 2-reaction partitions per benchmark network (chosen by
#: a candidate-count sweep; see EXPERIMENTS.md).  The paper's own choice
#: for the full Network I was {R89r, R74r}.
TABLE3_PARTITIONS: dict[str, tuple[str, str]] = {
    "yeast-I-small": ("R13r", "R32r"),
    "yeast-II-small": ("R13r", "R32r"),
}


def _default_table3_partition(network_name, reduced, options):
    preset = TABLE3_PARTITIONS.get(network_name)
    if preset is not None and all(reduced.has_reaction(r) for r in preset):
        return preset
    preferred = [r for r in ("R89r", "R74r") if reduced.has_reaction(r)]
    if len(preferred) == 2:
        return tuple(preferred)
    return select_partition_reactions(reduced, 2, options=options)


@dataclasses.dataclass
class Table3Run:
    """Table III: per-subset rows plus the unsplit baseline."""

    table: Table
    subset_candidates: list[int]
    subset_efms: list[int]
    subset_modeled: list[ModeledTimes]
    unsplit_candidates: int
    unsplit_modeled_total: float
    n_efms_total: int

    @property
    def cumulative_candidates(self) -> int:
        return sum(self.subset_candidates)

    @property
    def cumulative_modeled_total(self) -> float:
        return sum(m.total for m in self.subset_modeled)


def run_table3(
    network_name: str = "yeast-I-small",
    partition: Sequence[str] | None = None,
    *,
    n_ranks: int = 16,
    platform: PlatformSpec = CALHOUN,
    backend: BackendName = "sequential",
    options: AlgorithmOptions = DEFAULT_OPTIONS,
) -> Table3Run:
    """Table III: divide-and-conquer across two reactions vs. unsplit.

    The paper partitions Network I across {R89r, R74r} on 16 cores; the
    headline result is cumulative candidates 81.7e9 < 159.6e9 unsplit and
    cumulative time 141.6 s < 209.0 s.
    """
    network, rec, problem, _split_rec = _prepare(network_name, options)
    reduced = rec.reduced
    if partition is None:
        partition = _default_table3_partition(network_name, reduced, options)

    unsplit = combinatorial_parallel(
        problem, n_ranks, options=options, backend=backend
    )
    unsplit_modeled = model_run(unsplit.rank_stats, unsplit.rank_traces, platform)

    dnc = combined_parallel(
        reduced, tuple(partition), n_ranks, options=options, backend=backend
    )

    table = Table(
        title=(
            f"Table III analog — Algorithm 3 on {network.name!r}, partition "
            f"{{{', '.join(partition)}}}, {n_ranks} ranks ({platform.name} model)"
        ),
        columns=["subset", "# EFM", "gen cand (s)", "rank test (s)",
                 "comm (s)", "merge (s)", "total (s)", "# candidates"],
    )
    subset_modeled: list[ModeledTimes] = []
    for s in dnc.subsets:
        if s.stats is None:
            modeled = ModeledTimes(0.0, 0.0, 0.0, 0.0)
            rank_stats = None
        else:
            # Re-derive per-rank stats through traces stored on the result.
            modeled = model_run(
                [s.stats], s.rank_traces or [], platform
            )
        subset_modeled.append(modeled)
        table.add_row(
            s.spec.label(),
            s.n_efms,
            modeled.gen_cand,
            modeled.rank_test,
            modeled.communicate,
            modeled.merge,
            modeled.total,
            s.n_candidates,
        )
    run3 = Table3Run(
        table=table,
        subset_candidates=[s.n_candidates for s in dnc.subsets],
        subset_efms=[s.n_efms for s in dnc.subsets],
        subset_modeled=subset_modeled,
        unsplit_candidates=unsplit.stats.total_candidates,
        unsplit_modeled_total=unsplit_modeled.total,
        n_efms_total=dnc.n_efms,
    )
    table.add_footer(
        f"Cumulative total time: {run3.cumulative_modeled_total:.2f} secs "
        f"(unsplit {n_ranks}-core: {unsplit_modeled.total:.2f} secs)"
    )
    table.add_footer(f"Total # EFM: {fmt_count(dnc.n_efms)}")
    table.add_footer(
        f"Total # candidate modes: {fmt_count(run3.cumulative_candidates)} "
        f"(unsplit: {fmt_count(run3.unsplit_candidates)})"
    )
    return run3


@dataclasses.dataclass
class Table4Run:
    table: Table
    n_efms_total: int
    total_candidates: int
    refinement_count: int
    alg2_oom_iteration: int | None
    alg2_total_iterations: int


def run_table4(
    network_name: str = "yeast-II-small",
    partition: Sequence[str] | None = None,
    *,
    n_ranks: int = 8,
    modeled_ranks: int = 256,
    platform: PlatformSpec = BLUE_GENE_P,
    backend: BackendName = "sequential",
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    capacity_fraction: float = 0.7,
) -> Table4Run:
    """Table IV: the combined algorithm on Network II / Blue Gene/P.

    Reproduces the full §IV story at benchmark scale:

    1. Algorithm 2 alone exceeds per-node memory shortly before completion
       (paper: iteration 59 of 61);
    2. a 3-reaction divide-and-conquer split leaves oversized subsets;
    3. the scheduler refines exactly those subsets with one more reaction
       and the whole EFM set completes within the memory cap.

    ``capacity_fraction`` sizes the modeled per-rank capacity as a fraction
    of the unsplit run's peak replica (a stand-in for "4 GB on a 63x83
    network" at our reduced scale).
    """
    network, rec, problem, _split_rec = _prepare(network_name, options)
    reduced = rec.reduced

    # Dry run to calibrate the memory cap against this workload's peak.
    probe = MemoryModel(capacity_bytes=1, enforcing=False)
    dry = combinatorial_parallel(
        problem, 1, options=options, backend=backend, memory_model=probe
    )
    peak = dry.result.stats.peak_mode_bytes
    capacity = max(1, int(capacity_fraction * peak * 1.5))  # 1.5 = working factor
    memory = MemoryModel(capacity_bytes=capacity)

    # Step 1: Algorithm 2 alone dies against the cap.
    oom_iteration = None
    try:
        combinatorial_parallel(
            problem, n_ranks, options=options, backend=backend, memory_model=memory
        )
    except ReproError as exc:
        oom_iteration = getattr(exc, "iteration", None)

    # Steps 2-3: combined algorithm; the scheduler refines what overflows.
    if partition is None:
        preferred = [r for r in ("R54r", "R90r", "R60r") if reduced.has_reaction(r)]
        partition = (
            tuple(preferred)
            if len(preferred) == 3
            else select_partition_reactions(reduced, 3, options=options)
        )
    run = combined_parallel(
        reduced, tuple(partition), n_ranks,
        options=options, backend=backend, memory_model=memory,
    )
    if not run.complete:  # pragma: no cover - calibration failure guard
        raise ReproError(
            "refinement did not converge under the modeled capacity; "
            "raise capacity_fraction"
        )
    refinements = run.meta["refinements"]

    table = Table(
        title=(
            f"Table IV analog — Algorithm 3 on {network.name!r}, partition "
            f"{{{', '.join(partition)}}}, {modeled_ranks} modeled "
            f"{platform.name} nodes (per-rank cap {capacity / 1024**2:.2f} MiB)"
        ),
        columns=["ID", "binary partition subset", "# candidate modes",
                 "# EFM", "modeled time (sec)"],
    )
    total_modeled = 0.0
    for s in run.subsets:
        assert s.stats is not None or s.n_efms == 0
        if s.stats is not None:
            modeled = model_run([s.stats], s.rank_traces or [], platform)
            # Scale generation to the modeled node count: each of
            # modeled_ranks nodes takes 1/modeled_ranks of the pairs.
            t = (
                modeled.gen_cand * n_ranks / modeled_ranks
                + modeled.rank_test * n_ranks / modeled_ranks
                + modeled.communicate
                + modeled.merge
            )
        else:
            t = 0.0
        total_modeled += t
        table.add_row(
            f"{s.spec.subset_id}/{s.spec.q_sub}",
            s.spec.label(),
            s.n_candidates,
            s.n_efms,
            t,
        )
    table.add_footer(f"Total # EFM: {fmt_count(run.n_efms)}")
    table.add_footer(f"Total time: {fmt_seconds(total_modeled)}")
    if oom_iteration is not None:
        table.add_footer(
            f"(Algorithm 2 alone: OutOfMemory at iteration {oom_iteration} of "
            f"{problem.q - problem.first_row + problem.first_row}, as in the paper)"
        )
    for parent, added, iteration, _ in refinements:
        table.add_footer(
            f"(refined subset {parent} with {added} "
            f"after OOM at iteration {iteration})"
        )
    return Table4Run(
        table=table,
        n_efms_total=run.n_efms,
        total_candidates=run.total_candidates,
        refinement_count=len(refinements),
        alg2_oom_iteration=oom_iteration,
        alg2_total_iterations=problem.q,
    )
