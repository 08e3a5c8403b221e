"""Unit tests for candidate generation and pair ranges.

Generation is driven through the whole-set oracle
(:func:`tests.core.batch_oracle.generate_candidates`), which collects
every :func:`repro.core.candidates.survivor_chunks` survivor of one
iteration as dense rows (``deferred=False``) or a support-only batch.
"""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.candidates import (
    PairRange,
    block_range,
    full_range,
    strided_range,
)
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats
from tests.core.batch_oracle import generate_candidates


def _stats():
    return IterationStats(position=0, reaction="x", reversible=False)


OPTS = AlgorithmOptions()


class TestPairRanges:
    def test_full_range_counts_all(self):
        assert full_range(17).count() == 17

    @pytest.mark.parametrize("n_pairs,size", [(10, 3), (7, 7), (5, 8), (0, 4)])
    def test_strided_partition_is_exact(self, n_pairs, size):
        seen = []
        for r in range(size):
            pr = strided_range(n_pairs, r, size)
            idx = list(range(pr.start, pr.stop, pr.step))
            assert len(idx) == pr.count()
            seen.extend(idx)
        assert sorted(seen) == list(range(n_pairs))

    @pytest.mark.parametrize("n_pairs,size", [(10, 3), (7, 7), (5, 8), (0, 4)])
    def test_block_partition_is_exact(self, n_pairs, size):
        seen = []
        for r in range(size):
            pr = block_range(n_pairs, r, size)
            seen.extend(range(pr.start, pr.stop))
        assert sorted(seen) == list(range(n_pairs))

    def test_block_balance(self):
        counts = [block_range(10, r, 3).count() for r in range(3)]
        assert max(counts) - min(counts) <= 1

    def test_empty_range_count(self):
        assert PairRange(5, 5).count() == 0
        assert PairRange(6, 5).count() == 0


class TestGenerateCandidates:
    def _setup(self):
        # 3 modes over 4 reactions; row 2 has signs (+, -, 0).
        vals = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [1.0, 1.0, 0.0, 1.0],
            ]
        )
        return ModeMatrix(vals)

    def test_combination_annihilates_row(self):
        modes = self._setup()
        stats = _stats()
        cand = generate_candidates(
            modes,
            2,
            np.array([0]),
            np.array([1]),
            full_range(1),
            rank_bound=3,
            options=OPTS,
            stats=stats,
            deferred=False,
        )
        assert cand.n_modes == 1
        assert cand.values[0, 2] == 0.0
        # a = -(-1) = 1, b = 1 -> mode0 + mode1 = (1,1,0,0) normalized
        assert np.allclose(cand.values[0], [1.0, 1.0, 0.0, 0.0])

    def test_deferred_batch_materializes_to_eager_rows(self):
        modes = self._setup()
        eager = generate_candidates(
            modes, 2, np.array([0]), np.array([1]), full_range(1),
            rank_bound=3, options=OPTS, stats=_stats(), deferred=False,
        )
        batch = generate_candidates(
            modes, 2, np.array([0]), np.array([1]), full_range(1),
            rank_bound=3, options=OPTS, stats=_stats(), deferred=True,
        )
        assert isinstance(batch, CandidateBatch)
        assert batch.n_modes == eager.n_modes == 1
        # Supports computed from transient values match the eager supports.
        assert np.array_equal(batch.supports.words, eager.supports.words)
        dense = batch.materialize(modes.values)
        assert np.array_equal(dense.values, eager.values)
        assert np.array_equal(dense.supports.words, eager.supports.words)

    def test_deferred_batch_is_smaller_than_eager(self):
        rng = np.random.default_rng(3)
        modes = ModeMatrix(rng.normal(size=(20, 64)))
        col = modes.column(0)
        pos = np.nonzero(col > 0)[0]
        neg = np.nonzero(col < 0)[0]
        n_pairs = pos.size * neg.size
        eager = generate_candidates(
            modes, 0, pos, neg, full_range(n_pairs), 64, OPTS, _stats(),
            deferred=False,
        )
        batch = generate_candidates(
            modes, 0, pos, neg, full_range(n_pairs), 64, OPTS, _stats(),
            deferred=True,
        )
        assert batch.n_modes == eager.n_modes > 0
        assert batch.nbytes() * 4 <= eager.nbytes()

    def test_prefilter_rejects_oversized_union(self):
        modes = ModeMatrix(
            np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, -1.0, 1.0]])
        )
        stats = _stats()
        cand = generate_candidates(
            modes,
            3,
            np.array([0]),
            np.array([1]),
            full_range(1),
            rank_bound=2,  # union popcount 6 > rank+2=4 -> reject
            options=OPTS,
            stats=stats,
            deferred=False,
        )
        assert cand.n_modes == 0
        assert stats.n_prefilter_kept == 0

    def test_chunking_equivalence(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(12, 6))
        modes = ModeMatrix(vals)
        col = modes.column(0)
        pos = np.nonzero(col > 0)[0]
        neg = np.nonzero(col < 0)[0]
        outs = []
        for chunk in (1, 3, 10_000):
            stats = _stats()
            cand = generate_candidates(
                modes, 0, pos, neg, full_range(pos.size * neg.size),
                rank_bound=6,
                options=AlgorithmOptions(pair_chunk=chunk),
                stats=stats,
                deferred=False,
            )
            outs.append(np.sort(cand.values, axis=0))
        assert np.allclose(outs[0], outs[1])
        assert np.allclose(outs[0], outs[2])

    def test_strided_shares_cover_all_pairs(self):
        rng = np.random.default_rng(1)
        modes = ModeMatrix(rng.normal(size=(10, 5)))
        col = modes.column(1)
        pos = np.nonzero(col > 0)[0]
        neg = np.nonzero(col < 0)[0]
        n_pairs = pos.size * neg.size
        full_stats = _stats()
        full = generate_candidates(
            modes, 1, pos, neg, full_range(n_pairs), 5,
            OPTS, full_stats, deferred=False,
        )
        pieces = []
        for r in range(3):
            s = _stats()
            part = generate_candidates(
                modes, 1, pos, neg, strided_range(n_pairs, r, 3), 5,
                OPTS, s, deferred=False,
            )
            if part.n_modes:
                pieces.append(part.values)
        union = np.concatenate(pieces, axis=0)
        assert union.shape[0] == full.n_modes
        # Same multiset of rows.
        a = union[np.lexsort(union.T)]
        b = full.values[np.lexsort(full.values.T)]
        assert np.allclose(a, b)
