"""Distributed-memory parallel Nullspace Algorithms: the combinatorial
replicated-state algorithm (Algorithm 2, each rank taking the strided pair
share) and, on the same loop with the mode matrix sharded instead of
replicated, the column-partitioned variant (the paper's future-work
item 1)."""

from repro.parallel.combinatorial import ParallelRunResult, combinatorial_parallel

__all__ = [
    "ParallelRunResult",
    "combinatorial_parallel",
]
