#!/usr/bin/env python3
"""The paper's §IV memory story, end to end.

On Network II the combinatorial parallel algorithm "had to be abandoned at
the 59th iteration, two iterations before completion" because the
replicated mode matrix outgrew Blue Gene/P's 4 GB nodes; a 3-reaction
divide-and-conquer split still left two oversized subsets, and the authors
manually added a 4th partition reaction to those.  This example replays
the whole mechanism at benchmark scale with an explicit MemoryModel; the
subproblem scheduler splits every subset that runs out of memory by one
more reaction (the paper's future-work item: "an automated method ...
would be helpful to make the combined parallel Nullspace Algorithm a
fully automated procedure").

Run:  python examples/memory_limits.py
"""

from repro import OutOfMemoryError, compress_network
from repro.cluster.memory import MemoryModel
from repro.dnc.combined import combined_parallel
from repro.dnc.selection import select_partition_reactions
from repro.efm.api import build_problem_with_split
from repro.models.variants import yeast_2_small
from repro.parallel.combinatorial import combinatorial_parallel


def main() -> None:
    network = yeast_2_small()
    rec = compress_network(network)
    print(rec.summary())
    problem, _split = build_problem_with_split(rec.reduced)

    # Calibrate a "node size" against this workload: measure the peak
    # replica footprint, then allow only ~70% of it — our stand-in for
    # "a 63x83 network against 4 GB nodes".
    probe = MemoryModel(capacity_bytes=1, enforcing=False)
    combinatorial_parallel(problem, 1, memory_model=probe)
    capacity = int(0.7 * probe.peak_bytes)
    memory = MemoryModel(capacity_bytes=capacity)
    print(f"peak replica: {probe.peak_bytes:,} B -> modeled node cap {capacity:,} B")

    # 1. Algorithm 2 alone dies near the end, like the paper's iteration 59.
    try:
        combinatorial_parallel(problem, 4, memory_model=memory)
        raise SystemExit("expected an OutOfMemoryError")
    except OutOfMemoryError as exc:
        total = problem.q - problem.first_row
        done = exc.iteration - problem.first_row + 1
        print(
            f"\nAlgorithm 2 alone: OUT OF MEMORY at iteration {done} of "
            f"{total} (needed {exc.required_bytes:,} B, cap "
            f"{exc.capacity_bytes:,} B)"
        )

    # 2-3. The combined algorithm with automatic refinement completes.
    partition = select_partition_reactions(rec.reduced, 2, method="tail")
    print(f"\ninitial partition: {partition}")
    run = combined_parallel(rec.reduced, partition, 4, memory_model=memory)
    assert run.complete

    refinements = run.meta["refinements"]
    for parent, added, iteration, _ in refinements:
        print(
            f"  subset [{parent}] exceeded memory at iteration "
            f"{iteration} -> refined with {added}"
        )
    print(f"\nfinal subsets ({len(run.subsets)}):")
    for s in run.subsets:
        print(
            f"  [{s.spec.label():>28s}] {s.n_efms:6d} EFMs, "
            f"{s.n_candidates:11,d} candidates"
        )
    print(
        f"\ncomplete: {run.n_efms:,} EFMs computed under a "
        f"memory cap that defeated Algorithm 2 "
        f"({len(refinements)} automatic refinement(s))"
    )


if __name__ == "__main__":
    main()
