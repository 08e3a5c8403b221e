"""E-MICRO — microbenchmarks of the hot kernels.

Times the four inner operations whose rates parameterize the platform
model (candidate pair generation, the algebraic rank test, packed-support
deduplication, network compression + kernel construction), providing the
measured host-side analogue of the calibrated Calhoun/Blue Gene/P rates.
"""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.candidates import full_range, survivor_chunks
from repro.core.ranktest import rank_test
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats
from repro.linalg import bitset
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network


@pytest.fixture(scope="module")
def medium_modes(yeast1_small_problem):
    """A realistic mid-run mode matrix, stopped at the unprocessed row
    with the largest pos x neg pair count."""
    from repro.core.serial import nullspace_algorithm

    _, problem, _ = yeast1_small_problem
    mid = (problem.first_row + problem.q) // 2
    res = nullspace_algorithm(problem, stop_row=mid)
    best_k, best_pairs = mid, -1
    for k in range(mid, problem.q):
        col = res.modes.column(k)
        pairs = int((col > 0).sum()) * int((col < 0).sum())
        if pairs > best_pairs:
            best_k, best_pairs = k, pairs
    assert best_pairs > 0, "workload has no pair-generating row after mid"
    return problem, best_k, res.modes


def _survivor_chunks(problem, k, modes):
    """Every generation survivor chunk of row ``k`` (the candidate phase's
    front-end: pair enumeration, zone maps, union-popcount prefilter)."""
    col = modes.column(k)
    pos = np.nonzero(col > 0)[0]
    neg = np.nonzero(col < 0)[0]
    stats = IterationStats(position=k, reaction="x", reversible=False)
    return list(
        survivor_chunks(
            modes, k, pos, neg, full_range(pos.size * neg.size),
            problem.rank, AlgorithmOptions(), stats,
        )
    )


def test_bench_pair_generation(benchmark, medium_modes):
    problem, k, modes = medium_modes
    col = modes.column(k)
    pos = np.nonzero(col > 0)[0]
    neg = np.nonzero(col < 0)[0]
    n_pairs = pos.size * neg.size
    assert n_pairs > 0

    def gen():
        # Generation through support extraction, as the candidate phase
        # runs it.
        return [
            bitset.pack_support_rows(raw != 0)
            for _, _, raw, _ in _survivor_chunks(problem, k, modes)
        ]

    words = benchmark(gen)
    assert sum(w.shape[0] for w in words) >= 0


def test_bench_rank_test(benchmark, medium_modes):
    problem, k, modes = medium_modes
    chunks = _survivor_chunks(problem, k, modes)
    assert chunks
    cand = ModeMatrix(np.concatenate([raw for _, _, raw, _ in chunks])).dedup()
    assert cand.n_modes > 0
    accept = benchmark(
        lambda: rank_test(cand, problem.n_perm, problem.rank)
    )
    assert accept.shape == (cand.n_modes,)


def test_bench_bitset_dedup(benchmark):
    rng = np.random.default_rng(0)
    mask = rng.random((64, 20_000)) < 0.2
    words = bitset.pack_supports(mask)
    uniq, _ = benchmark(lambda: bitset.unique_rows(words))
    assert uniq.shape[0] <= words.shape[0]


def test_bench_union_popcount_prefilter(benchmark):
    rng = np.random.default_rng(1)
    mask = rng.random((64, 2_000)) < 0.2
    words = bitset.pack_supports(mask)
    i = rng.integers(0, 2_000, size=100_000)
    j = rng.integers(0, 2_000, size=100_000)
    counts = benchmark(lambda: bitset.union_popcount(words[i], words[j]))
    assert counts.shape == (100_000,)


def test_bench_compression(benchmark):
    net = yeast_1_small()
    rec = benchmark(lambda: compress_network(net))
    assert rec.reduced.n_reactions < net.n_reactions


def test_bench_kernel_construction(benchmark):
    from repro.efm.api import build_problem_with_split

    rec = compress_network(yeast_1_small())
    problem, _ = benchmark(lambda: build_problem_with_split(rec.reduced))
    assert problem.n_free > 0
