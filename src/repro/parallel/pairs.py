"""Pair-partitioning strategies for ParallelGenerateEFMCands.

At each iteration the ``n_pos * n_neg`` candidate pairs are split across
ranks.  Reference [17] distributes pairs "combinatorially" — a cyclic
(strided) assignment so that consecutive pairs, whose costs correlate
(they share a positive mode), land on different ranks.  A contiguous block
split is provided as the ablation baseline.  Both strategies enumerate
their share in the same i-major order as the serial full range.
"""

from __future__ import annotations

from typing import Callable, Literal

from repro.core.candidates import PairRange, block_range, strided_range
from repro.errors import AlgorithmError

PairStrategyName = Literal["strided", "block"]
PairStrategy = Callable[[int, int, int], PairRange]


def get_pair_strategy(name: PairStrategyName) -> PairStrategy:
    """Strategy factory: ``(n_pairs, rank, size) -> PairRange``."""
    if name == "strided":
        return lambda n_pairs, rank, size: strided_range(n_pairs, rank, size)
    if name == "block":
        return lambda n_pairs, rank, size: block_range(n_pairs, rank, size)
    raise AlgorithmError(f"unknown pair strategy {name!r}")


def pair_share_counts(n_pairs: int, size: int, name: PairStrategyName) -> list[int]:
    """Per-rank pair counts under a strategy (load-balance reporting)."""
    strategy = get_pair_strategy(name)
    return [strategy(n_pairs, r, size).count() for r in range(size)]
