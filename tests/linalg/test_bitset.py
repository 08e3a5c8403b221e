"""Unit tests for packed support bitsets."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import LinAlgError
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports
from tests.core.adjacency_oracle import subset_count_rows


def _random_mask(n_rows, n_modes, seed=0, p=0.4):
    rng = np.random.default_rng(seed)
    return rng.random((n_rows, n_modes)) < p


class TestPackUnpack:
    @pytest.mark.parametrize("n_rows", [1, 5, 63, 64, 65, 130])
    def test_roundtrip(self, n_rows):
        mask = _random_mask(n_rows, 7, seed=n_rows)
        words = bitset.pack_supports(mask)
        assert words.shape == (7, bitset.n_words_for(n_rows))
        assert np.array_equal(bitset.unpack_supports(words, n_rows), mask)

    def test_bit_placement(self):
        mask = np.zeros((70, 1), dtype=bool)
        mask[65, 0] = True
        words = bitset.pack_supports(mask)
        assert words[0, 0] == 0
        assert words[0, 1] == np.uint64(1) << np.uint64(1)

    def test_empty(self):
        words = bitset.pack_supports(np.zeros((10, 0), dtype=bool))
        assert words.shape == (0, 1)

    def test_high_bit(self):
        mask = np.zeros((64, 1), dtype=bool)
        mask[63, 0] = True
        words = bitset.pack_supports(mask)
        assert words[0, 0] == np.uint64(1) << np.uint64(63)


class TestPopcount:
    def test_matches_mask_sum(self):
        mask = _random_mask(100, 20, seed=1)
        words = bitset.pack_supports(mask)
        assert np.array_equal(bitset.popcount(words), mask.sum(axis=0))

    def test_union_popcount_simple(self):
        mask = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)  # m0={0,1}, m1={1,2}
        a = bitset.pack_supports(mask)
        assert bitset.union_popcount(a[[0]], a[[1]])[0] == 3

    def test_union_popcount_exhaustive(self):
        mask = _random_mask(70, 10, seed=2)
        words = bitset.pack_supports(mask)
        i = np.arange(10)
        j = (i + 3) % 10
        got = bitset.union_popcount(words[i], words[j])
        want = (mask[:, i] | mask[:, j]).sum(axis=0)
        assert np.array_equal(got, want)


class TestSubsetQueries:
    def test_subset_rows(self):
        mask = np.array(
            [[1, 1, 0], [0, 1, 0], [0, 1, 1]], dtype=bool
        )  # rows=3 bits, cols=3 modes
        words = bitset.pack_supports(mask)
        # mode1 = {0,1,2}; mode0 = {0}; mode2 = {2}
        hit = bitset.subset_rows(words[[1]], words[[0, 2]])
        assert hit[0]  # mode0 subset of mode1
        hit2 = bitset.subset_rows(words[[0]], words[[1]])
        assert not hit2[0]  # mode1 not subset of mode0

    def test_subset_count_rows(self):
        mask = np.array([[1, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], dtype=bool)
        words = bitset.pack_supports(mask)
        # supports: m0={0}, m1={0,1}, m2={2}, m3={0,1,2}
        counts = subset_count_rows(words, words)
        assert counts.tolist() == [1, 2, 1, 4]

    def test_empty_inputs(self):
        empty = np.zeros((0, 1), dtype=np.uint64)
        some = bitset.pack_supports(np.ones((3, 2), dtype=bool))
        assert bitset.subset_rows(empty, some).shape == (0,)
        assert not bitset.subset_rows(some, empty).any()

    def test_chunking_consistency(self):
        # Force the chunk loop with a larger batch.
        mask = _random_mask(130, 300, seed=3)
        words = bitset.pack_supports(mask)
        got = bitset.subset_rows(words, words[:50])
        want = np.array(
            [
                any(
                    (mask[:, r] & mask[:, c]).sum() == mask[:, r].sum()
                    for r in range(50)
                )
                for c in range(300)
            ]
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_rows", [40, 64, 130])  # 1, 1 and 3 words
    @pytest.mark.parametrize("cap", [None, 4096, 1])  # one, many and one chunk per candidate
    def test_chunk_boundaries(self, monkeypatch, n_rows, cap):
        if cap is not None:
            monkeypatch.setattr(bitset, "TRANSIENT_BYTES", cap)
        # Four-bit references against half-dense candidates, so some
        # candidates contain a reference and some do not.
        cands = _random_mask(n_rows, 300, seed=3, p=0.5)
        rng = np.random.default_rng(4)
        refs = np.zeros((n_rows, 50), dtype=bool)
        for r in range(50):
            refs[rng.choice(n_rows, 4, replace=False), r] = True
        got = bitset.subset_rows(
            bitset.pack_supports(cands), bitset.pack_supports(refs)
        )
        want = np.array(
            [
                any(not (refs[:, r] & ~cands[:, c]).any() for r in range(50))
                for c in range(300)
            ]
        )
        assert want.any() and not want.all()
        assert np.array_equal(got, want)


class TestUniqueAndMembership:
    def test_unique_rows_first_occurrence(self):
        mask = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool)
        words = bitset.pack_supports(mask)
        uniq, first = bitset.unique_rows(words)
        assert first.tolist() == [0, 1]
        assert uniq.shape[0] == 2

    def test_unique_rows_empty(self):
        empty = np.zeros((0, 2), dtype=np.uint64)
        uniq, first = bitset.unique_rows(empty)
        assert uniq.shape[0] == 0 and first.size == 0

    def test_rows_in(self):
        mask = _random_mask(40, 12, seed=4)
        words = bitset.pack_supports(mask)
        member = bitset.rows_in(words[:6], words[3:])
        assert member.tolist() == [False, False, False, True, True, True]


class TestPackedSupports:
    def test_from_bool_and_back(self):
        mask = _random_mask(33, 6, seed=5)
        ps = PackedSupports.from_bool(mask)
        assert np.array_equal(ps.to_bool(), mask)
        assert len(ps) == 6
        assert ps.n_rows == 33

    def test_test_bit(self):
        mask = np.zeros((70, 3), dtype=bool)
        mask[65, 1] = True
        ps = PackedSupports.from_bool(mask)
        assert ps.test_bit(65).tolist() == [False, True, False]

    def test_getitem_scalar_and_slice(self):
        ps = PackedSupports.from_bool(_random_mask(10, 5, seed=6))
        assert len(ps[2]) == 1
        assert len(ps[np.array([0, 3])]) == 2

    def test_concat(self):
        a = PackedSupports.from_bool(_random_mask(10, 2, seed=7))
        b = PackedSupports.from_bool(_random_mask(10, 3, seed=8))
        assert len(a.concat(b)) == 5

    def test_concat_mismatch(self):
        a = PackedSupports.from_bool(_random_mask(10, 2))
        b = PackedSupports.from_bool(_random_mask(11, 2))
        with pytest.raises(LinAlgError):
            a.concat(b)

    def test_word_count_validation(self):
        with pytest.raises(LinAlgError):
            PackedSupports(np.zeros((2, 3), dtype=np.uint64), n_rows=64)

    def test_equality(self):
        mask = _random_mask(12, 4, seed=9)
        assert PackedSupports.from_bool(mask) == PackedSupports.from_bool(mask)
        other = mask.copy()
        other[0, 0] = ~other[0, 0]
        assert PackedSupports.from_bool(mask) != PackedSupports.from_bool(other)


#: Word values that stress the sort keys: zero, the sign bit of a signed
#: reinterpretation, all ones, plus arbitrary 64-bit words.
_WORDS = st.one_of(
    st.sampled_from([0, 1, 1 << 63, (1 << 63) - 1, (1 << 64) - 1]),
    st.integers(0, (1 << 64) - 1),
)


@st.composite
def _membership_cases(draw):
    """``(probe, reference)`` row sets drawn from one small pool of rows,
    so both sides repeat rows and the probe holds hits and misses; sizes
    reach 200 x 200, either side of 2**14 (probe x reference) pairs."""
    n_words = draw(st.integers(1, 3))
    pool = np.array(
        draw(st.lists(st.lists(_WORDS, min_size=n_words, max_size=n_words),
                      min_size=1, max_size=12)),
        dtype=bitset.WORD,
    )
    n_ref_pool = draw(st.integers(0, len(pool)))
    n_a = draw(st.integers(0, 200))
    n_b = draw(st.integers(0, 200)) if n_ref_pool else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = pool[rng.integers(0, len(pool), n_a)]
    b = pool[rng.integers(0, max(n_ref_pool, 1), n_b)]
    return a, b


def _rows_in_oracle(a, b):
    ref = {tuple(row) for row in b.tolist()}
    return [tuple(row) in ref for row in a.tolist()]


@given(case=_membership_cases())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=(np.zeros((0, 2), dtype=bitset.WORD),
               np.ones((5, 2), dtype=bitset.WORD)))
@example(case=(np.ones((5, 3), dtype=bitset.WORD),
               np.zeros((0, 3), dtype=bitset.WORD)))
@example(case=(np.arange(300, dtype=bitset.WORD)[:, None] << np.uint64(55),
               np.arange(0, 600, 2, dtype=bitset.WORD)[:, None] << np.uint64(55)))
def test_rows_in_matches_set_oracle(case):
    a, b = case
    member = bitset.rows_in(a, b)
    assert member.dtype == bool
    assert member.tolist() == _rows_in_oracle(a, b)
