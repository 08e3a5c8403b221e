"""Divide-and-conquer machinery: subset enumeration (Proposition 1), the
combined parallel Nullspace Algorithm (Algorithm 3) and
partition-reaction selection heuristics.  Memory-driven refinement
of subsets runs in :class:`repro.engine.scheduler.SubproblemScheduler`."""

from repro.dnc.combined import CombinedRunResult, SubsetResult, combined_parallel, solve_subset
from repro.dnc.selection import select_partition_reactions
from repro.dnc.subsets import SubsetSpec, enumerate_subsets

__all__ = [
    "CombinedRunResult",
    "SubsetResult",
    "combined_parallel",
    "solve_subset",
    "select_partition_reactions",
    "SubsetSpec",
    "enumerate_subsets",
]
