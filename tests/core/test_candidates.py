"""Unit tests for candidate generation and pair ranges.

Generation is driven through the whole-set oracle
(:func:`tests.core.batch_oracle.generate_candidates`), which collects
every :func:`repro.core.candidates.survivor_chunks` survivor of one
iteration as a support-only batch or, with ``deferred=False``, a batch
that also keeps the dense rows formed at generation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import AlgorithmOptions
from repro.core.candidates import (
    PairRange,
    full_range,
    strided_range,
    survivor_chunks,
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

    def test_strided_balance(self):
        counts = [strided_range(103, r, 7).count() for r in range(7)]
        assert sum(counts) == 103
        assert max(counts) - min(counts) <= 1

    def test_empty_range_count(self):
        assert PairRange(5, 5).count() == 0
        assert PairRange(6, 5).count() == 0


class TestGenerateCandidates:
    def _setup(self):
        # 3 modes over 4 reactions; row 2 has signs (+, -, 0).
        vals = np.array(
            [
                [1, 0, 1, 0],
                [0, 1, -1, 0],
                [1, 1, 0, 1],
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
        assert cand.dense.values[0, 2] == 0
        # a = -(-1) = 1, b = 1 -> mode0 + mode1 = (1,1,0,0), exactly
        assert cand.dense.values[0].tolist() == [1, 1, 0, 0]

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
        assert np.array_equal(dense.values, eager.dense.values)
        assert np.array_equal(dense.supports.words, eager.dense.supports.words)

    def test_deferred_batch_is_smaller_than_eager(self):
        rng = np.random.default_rng(3)
        modes = ModeMatrix(rng.integers(-9, 10, size=(20, 64)))
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
            np.array([[1, 1, 1, 1, 0], [0, 0, 1, -1, 1]])
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
        vals = rng.integers(-9, 10, size=(12, 6))
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
            outs.append(np.sort(cand.dense.values, axis=0))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_strided_shares_cover_all_pairs(self):
        rng = np.random.default_rng(1)
        modes = ModeMatrix(rng.integers(-9, 10, size=(10, 5)))
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
                pieces.append(part.dense.values)
        union = np.concatenate(pieces, axis=0)
        assert union.shape[0] == full.n_modes
        # Same multiset of rows.
        a = union[np.lexsort(union.T)]
        b = full.dense.values[np.lexsort(full.dense.values.T)]
        assert np.array_equal(a, b)


class TestSurvivorChunksOracle:
    """``survivor_chunks`` against a brute-force i-major prefilter.

    Random 1-, 2- and 5-word supports, full ranges and strided ranges
    (including steps larger than ``n_neg``, so a share skips whole rows),
    and chunk sizes that make chunks start and end mid-row: the
    concatenated survivors must be exactly the pairs ``p = a * n_neg + b``
    of the range, in range order, whose support union has at most
    ``rank_bound + 2`` entries."""

    @staticmethod
    def _modes(rng, n_pos, n_neg, n_zero, q, k, density):
        n = n_pos + n_neg + n_zero
        mask = rng.random((n, q)) < density
        mags = rng.integers(1, 5, (n, q)) * rng.choice([-1, 1], (n, q))
        vals = mask * mags
        signs = np.repeat([1, -1, 0], [n_pos, n_neg, n_zero])
        vals[:, k] = signs[rng.permutation(n)] * rng.integers(1, 5, n)
        return ModeMatrix(vals)

    @staticmethod
    def _brute_force(modes, pos, neg, pr, rank_bound):
        sup = [int.from_bytes(w.tobytes(), "little") for w in modes.supports.words]
        want = []
        for p in range(pr.start, pr.stop, pr.step):
            i, j = int(pos[p // neg.size]), int(neg[p % neg.size])
            if (sup[i] | sup[j]).bit_count() <= rank_bound + 2:
                want.append((i, j))
        return want

    def _check(self, modes, k, pr, rank_bound, chunk):
        col = modes.values[:, k]
        pos = np.flatnonzero(col > 0)
        neg = np.flatnonzero(col < 0)
        want = self._brute_force(modes, pos, neg, pr, rank_bound)
        stats = _stats()
        got = [
            (int(i), int(j))
            for i_ok, j_ok, _, _ in survivor_chunks(
                modes, k, pos, neg, pr, rank_bound, OPTS, stats,
                chunk_pairs=chunk,
            )
            for i, j in zip(i_ok, j_ok)
        ]
        assert got == want
        assert stats.n_prefilter_kept == len(want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_words=st.sampled_from([1, 2, 5]),
        density=st.sampled_from([0.05, 0.2, 0.5]),
        rank_slack=st.integers(0, 8),
        kind=st.sampled_from(["full", "strided", "wide-stride"]),
        chunk=st.sampled_from([None, 1, 7, 37, 512, 1 << 16]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_brute_force(
        self, seed, n_words, density, rank_slack, kind, chunk, data
    ):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(64 * (n_words - 1) + 3, 64 * n_words + 1))
        n_pos, n_neg = (int(x) for x in rng.integers(1, 60, size=2))
        k = int(rng.integers(q))
        modes = self._modes(rng, n_pos, n_neg, int(rng.integers(0, 4)), q, k,
                            density)
        n_pairs = n_pos * n_neg
        if kind == "full":
            pr = full_range(n_pairs)
        else:
            lo, hi = (1, 4) if kind == "strided" else (n_neg + 1, 3 * n_neg + 1)
            size = data.draw(st.integers(lo, hi))
            pr = strided_range(n_pairs, data.draw(st.integers(0, size - 1)), size)
        rank_bound = int(np.median(modes.supports.popcounts())) + rank_slack
        self._check(modes, k, pr, rank_bound, chunk)

    @pytest.mark.parametrize("chunk", [1, 5, 11, 13, 40])
    @pytest.mark.parametrize("n_words", [1, 2])
    def test_chunks_starting_mid_row(self, chunk, n_words):
        """Chunk sizes that are not multiples of ``n_neg = 13`` start most
        chunks mid-row, on a full range and on a 3-rank share."""
        rng = np.random.default_rng(chunk)
        q = 64 * n_words
        modes = self._modes(rng, 9, 13, 2, q, 0, 0.3)
        rank_bound = int(np.median(modes.supports.popcounts()))
        for pr in (full_range(9 * 13), strided_range(9 * 13, 2, 3)):
            self._check(modes, 0, pr, rank_bound, chunk)
