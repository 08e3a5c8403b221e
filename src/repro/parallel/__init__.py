"""Distributed-memory parallel Nullspace Algorithms: the combinatorial
replicated-state algorithm (Algorithm 2, each rank taking the strided pair
share) and the column-partitioned variant (the paper's future-work
item 1)."""

from repro.parallel.combinatorial import ParallelRunResult, combinatorial_parallel
from repro.parallel.distributed import distributed_parallel

__all__ = [
    "ParallelRunResult",
    "combinatorial_parallel",
    "distributed_parallel",
]
