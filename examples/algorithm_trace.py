#!/usr/bin/env python3
"""Reproduce Figure 2: the iteration-by-iteration nullspace matrices.

The paper walks the Nullspace Algorithm through the toy network, printing
the intermediate matrices K(1)...K(5).  This example records the same trace
with ``AlgorithmOptions(record_trace=True)`` — modes are exact integer
rows, so the matrices print as the paper's integers — and narrates each
iteration's
pos/neg split, candidates, duplicates and rank-test outcomes (§II.C).

Run:  python examples/algorithm_trace.py
"""

from repro import AlgorithmOptions, compress_network, toy_network
from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm


def print_matrix(names, matrix) -> None:
    width = max(len(n) for n in names)
    for name, row in zip(names, matrix):
        cells = " ".join(f"{int(x):5d}" for x in row)
        print(f"    {name:>{width}s} | {cells}")


def main() -> None:
    record = compress_network(toy_network())
    # free_hint pins the identity block to {r2, r4, r5, r7} so the kernel
    # matches eq. (5) of the paper literally.
    options = AlgorithmOptions(record_trace=True)
    problem = build_problem(
        record.reduced, options=options, free_hint=("r2", "r4", "r5", "r7")
    )

    print("row order (eq. 5/6):", " ".join(problem.names))
    print("\nK(1) — initial nullspace matrix (eq. 5):")
    print_matrix(problem.names, problem.kernel)

    result = nullspace_algorithm(problem, options=options)

    for snap, it in zip(result.trace, result.stats.iterations):
        print(
            f"\niteration at row {it.position} ({it.reaction}"
            f"{', reversible' if it.reversible else ''}): "
            f"{it.n_pos} positive x {it.n_neg} negative -> {it.n_pairs} "
            f"candidate(s), {it.n_duplicates} duplicate(s), "
            f"{it.n_tested} rank-tested, {it.n_accepted} accepted"
            + (f", {it.n_neg_removed} negative column(s) removed"
               if it.n_neg_removed else "")
        )
        print(f"  K after this iteration ({snap.matrix.shape[1]} columns):")
        print_matrix(snap.row_names, snap.matrix)

    print(f"\nfinal: {result.n_efms} elementary flux modes")
    # The §II.C narrative checkpoints:
    by_name = {it.reaction: it for it in result.stats.iterations}
    assert by_name["r1"].n_pairs == 0, "r1: all entries non-negative, no pairs"
    assert by_name["r3"].n_pairs == 1 and by_name["r3"].n_accepted == 1
    assert by_name["r6r"].n_pairs == 1 and by_name["r6r"].n_accepted == 1
    assert by_name["r8r"].n_pairs == 4, "2 pos x 2 neg at r8r"
    assert by_name["r8r"].n_tested == 3, "one duplicate -> only three probed"
    assert result.n_efms == 8
    print("matches the paper's §II.C walk-through exactly")


if __name__ == "__main__":
    main()
