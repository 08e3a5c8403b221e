#!/usr/bin/env python3
"""Algorithm 2 on simulated ranks: replication, backends, modeled scaling.

Runs the combinatorial parallel Nullspace Algorithm at several rank counts
on both message-passing backends (the deterministic sequential engine and
real OS processes), verifies the replicas agree with the serial algorithm,
and prints the modeled Calhoun scaling table — a small Table II.

Run:  python examples/parallel_scaling.py
"""

from repro import compress_network, compute_efms
from repro.bench.modeling import model_run
from repro.cluster.platform import CALHOUN
from repro.efm.api import build_problem_with_split
from repro.models.variants import yeast_1_small
from repro.parallel.combinatorial import combinatorial_parallel


def main() -> None:
    network = yeast_1_small()
    serial = compute_efms(network)
    print(f"serial reference: {serial.summary()}")

    rec = compress_network(network)
    problem, _split = build_problem_with_split(rec.reduced)

    print("\nbackend equivalence (4 ranks):")
    for backend in ("sequential", "process"):
        run = combinatorial_parallel(problem, 4, backend=backend)
        parallel = compute_efms(network, method="parallel", n_ranks=4, backend=backend)
        ok = serial.same_modes_as(parallel)
        print(
            f"  {backend:>10s}: {parallel.n_efms} EFMs, "
            f"{run.stats.total_candidates:,} candidates "
            f"{'== serial' if ok else '!!! MISMATCH'}"
        )
        assert ok

    print(f"\nmodeled strong scaling on {CALHOUN.name} "
          "(gen-cand work splits across ranks):")
    print(f"  {'ranks':>5s} {'gen (ms)':>9s} {'test (ms)':>9s} "
          f"{'comm (ms)':>9s} {'merge (ms)':>10s} {'total (ms)':>10s}")
    base = None
    for ranks in (1, 2, 4, 8, 16):
        run = combinatorial_parallel(problem, ranks)
        m = model_run(run.rank_stats, run.rank_traces, CALHOUN)
        if base is None:
            base = m.total
        print(
            f"  {ranks:5d} {m.gen_cand * 1e3:9.3f} {m.rank_test * 1e3:9.3f} "
            f"{m.communicate * 1e3:9.3f} {m.merge * 1e3:10.3f} "
            f"{m.total * 1e3:10.3f}  (speedup {base / m.total:4.2f}x)"
        )


if __name__ == "__main__":
    main()
