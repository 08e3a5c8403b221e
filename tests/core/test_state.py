"""Unit tests for the ModeMatrix container."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.state import CandidateBatch, ModeMatrix
from repro.errors import AlgorithmError
from repro.linalg.bitset import PackedSupports


class TestConstruction:
    def test_normalizes_rows_to_unit_max(self):
        m = ModeMatrix(np.array([[2, -4], [5, 0]]))
        assert np.allclose(np.abs(m.float_values()).max(axis=1), 1.0)

    def test_rows_reduced_by_gcd(self):
        m = ModeMatrix(np.array([[2, -4, 0], [0, 0, 0], [3, 5, 7]]))
        assert m.values.dtype == np.int64
        assert m.values.tolist() == [[1, -2, 0], [0, 0, 0], [3, 5, 7]]

    def test_non_integral_values_rejected(self):
        with pytest.raises(AlgorithmError, match="integers"):
            ModeMatrix(np.array([[1.0, 0.5]]))

    def test_integral_floats_accepted(self):
        m = ModeMatrix(np.array([[2.0, -6.0]]))
        assert m.values.dtype == np.int64 and m.values.tolist() == [[1, -3]]

    def test_supports_sync_with_values(self):
        m = ModeMatrix(np.array([[1, 0, -3], [0, 2, 0]]))
        assert np.array_equal(
            m.supports.to_bool().T, m.values != 0
        )

    def test_exact_mode_integerizes(self):
        # Python-int rows (past int64) reduce to coprime integers too.
        vals = np.array([[2**70, 3 * 2**70]], dtype=object)
        m = ModeMatrix(vals)
        assert m.values.dtype == object
        assert m.values.tolist() == [[1, 3]]

    def test_from_kernel_transposes(self):
        kernel = np.array([[1, 0], [0, 1], [1, -1]])
        m = ModeMatrix.from_kernel(kernel)
        assert m.n_modes == 2 and m.q == 3

    def test_empty(self):
        m = ModeMatrix.empty(5)
        assert m.n_modes == 0 and m.q == 5


class TestOperations:
    def test_select_keeps_supports(self):
        m = ModeMatrix(np.array([[1, 0], [0, 1], [1, 1]]))
        sel = m.select(np.array([2, 0]))
        assert sel.n_modes == 2
        assert np.array_equal(sel.supports.to_bool().T, sel.values != 0)

    def test_select_bool_mask(self):
        m = ModeMatrix(np.array([[1, 0], [0, 1]]))
        sel = m.select(np.array([True, False]))
        assert sel.n_modes == 1

    def test_concat(self):
        a = ModeMatrix(np.array([[1, 0]]))
        b = ModeMatrix(np.array([[0, 1]]))
        c = a.concat(b)
        assert c.n_modes == 2

    def test_concat_width_mismatch(self):
        with pytest.raises(AlgorithmError):
            ModeMatrix(np.ones((1, 2))).concat(ModeMatrix(np.ones((1, 3))))

    def test_concat_int64_with_python_ints(self):
        big = ModeMatrix(np.array([[2**70 + 1, 2]], dtype=object))
        out = ModeMatrix(np.array([[1, 2]])).concat(big)
        assert out.values.dtype == object
        assert out.values.tolist() == [[1, 2], [2**70 + 1, 2]]
        assert out.max_abs() == 2**70 + 1

    def test_dedup_by_support_keeps_first(self):
        m = ModeMatrix(np.array([[1, 0], [2, 0], [0, 1]]))
        d = m.dedup()
        assert d.n_modes == 2
        # first occurrence of support {0} kept (reduced value 1)
        assert d.values[0, 0] == 1

    def test_dedup_noop_returns_self(self):
        m = ModeMatrix(np.array([[1, 0], [0, 1]]))
        assert m.dedup() is m

    def test_column_accessor(self):
        m = ModeMatrix(np.array([[2, -1], [0, 1]]))
        assert np.array_equal(m.column(1), m.values[:, 1])

    def test_modes_as_columns_matches_paper_orientation(self):
        m = ModeMatrix(np.array([[1, 0], [0, 1]]))
        cols = m.modes_as_columns()
        assert cols.shape == (2, 2)
        assert np.array_equal(cols, m.values.T)

    def test_nbytes_positive_and_grows(self):
        small = ModeMatrix(np.ones((2, 4)))
        big = ModeMatrix(np.ones((200, 4)))
        assert 0 < small.nbytes() < big.nbytes()

    def test_from_parts_skips_normalization(self):
        m = ModeMatrix(np.array([[2, 1]]))
        rebuilt = ModeMatrix.from_parts(m.values, m.supports)
        assert np.array_equal(rebuilt.values, m.values)

    def test_from_parts_count_mismatch(self):
        m = ModeMatrix(np.array([[2, 1], [0, 1]]))
        with pytest.raises(AlgorithmError):
            ModeMatrix.from_parts(m.values[:1], m.supports)

    def test_float_values_are_correctly_rounded(self):
        m = ModeMatrix(np.array([[3, -1, 0], [0, 7, 2**40]], dtype=object))
        f = m.float_values()
        assert f.dtype == np.float64
        assert f.tolist() == [[1.0, -1 / 3, 0.0], [0.0, 7 / 2**40, 1.0]]


class TestInt64Envelope:
    def test_small_rows_stay_int64(self):
        m = ModeMatrix(np.array([[3, -2], [1, 5]]))
        assert not m.widen_for_row(0)
        assert m.values.dtype == np.int64

    def test_switch_keeps_values_supports_and_signs(self):
        big = 2**31
        m = ModeMatrix(np.array([[big, 1], [-1, big - 1]]))
        signs = m.sign_matrix().copy()
        words = m.supports.words.copy()
        before = m.values.tolist()
        assert m.widen_for_row(0)
        assert m.values.dtype == object
        assert m.values.tolist() == before
        assert np.array_equal(m.sign_matrix(), signs)
        assert np.array_equal(m.supports.words, words)
        assert not m.widen_for_row(0)  # already Python ints

    def test_bound_is_coefficient_times_row(self):
        # 2 * max|col 1| * max|row| = 2 * 1 * 2**61 < 2**63: stays int64,
        # while pairing on column 0 (2 * 2**61 * 2**61) cannot.
        m = ModeMatrix(np.array([[2**61, 1], [-(2**61) + 1, -1]]))
        assert not m.widen_for_row(1)
        assert m.widen_for_row(0)

    def test_combination_past_int64_is_exact(self):
        big = 2**40 + 1
        source = ModeMatrix(np.array([[big, big, 0], [-big, 0, 1]]))
        assert source.widen_for_row(0)
        batch = CandidateBatch(
            PackedSupports.from_bool(np.array([[0, 1, 1]], dtype=bool).T),
            np.array([0]), np.array([1]), 0,
        )
        dense = batch.materialize(source.values)
        # big * [-big, 0, 1] + big * [big, big, 0] = big * [0, big, 1].
        assert dense.values.tolist() == [[0, big, 1]]


class TestNbytesCountsSigns:
    def test_sign_cache_included_once_primed(self):
        m = ModeMatrix(np.array([[2, -1, 0], [0, 1, 2]]))
        base = m.nbytes()
        m.sign_matrix()  # prime the cache
        assert m.nbytes() == base + m.sign_matrix().nbytes

    def test_exact_mode_counts_signs_too(self):
        m = ModeMatrix(np.array([[2**70, -(2**71) - 1]], dtype=object))
        base = m.nbytes()
        m.sign_matrix()
        assert m.nbytes() == base + m.sign_matrix().nbytes


class TestCandidateBatch:
    def _batch(self):
        # Row k = 1 has one positive mode (0) and two negative (1, 2):
        # the natural pairs are (0, 1) and (0, 2), with coefficients
        # a = -col[j] > 0, b = col[i] > 0 derived from the column.
        source = ModeMatrix(np.array([
            [1, 1, 0, 0],
            [0, -1, 1, 0],
            [0, -2, 0, 1],
        ]))
        k = 1
        col = source.values[:, k]
        pair_i = np.array([0, 0])
        pair_j = np.array([1, 2])
        vals = (
            source.values[pair_i] * (-col[pair_j])[:, None]
            + source.values[pair_j] * col[pair_i][:, None]
        )
        batch = CandidateBatch(
            PackedSupports.from_bool((vals != 0).T), pair_i, pair_j, k
        )
        return source, batch

    def test_protocol_surface(self):
        _, batch = self._batch()
        assert batch.n_modes == len(batch) == 2
        assert batch.q == 4
        assert batch.row == 1
        assert batch.nbytes() == batch.supports.nbytes() + 2 * 2 * 8
        assert "2 candidates" in repr(batch)

    def test_materialize_matches_eager(self):
        source, batch = self._batch()
        dense = batch.materialize(source.values)
        col = source.values[:, batch.row]
        eager = ModeMatrix(
            source.values[batch.pair_i] * (-col[batch.pair_j])[:, None]
            + source.values[batch.pair_j] * col[batch.pair_i][:, None]
        )
        assert np.array_equal(dense.values, eager.values)
        assert np.array_equal(dense.supports.words, batch.supports.words)

    def test_select_and_concat(self):
        _, batch = self._batch()
        one = batch.select(np.array([1]))
        assert one.n_modes == 1 and one.pair_j[0] == 2
        assert one.row == batch.row
        both = one.concat(batch.select(np.array([0])))
        assert both.n_modes == 2
        assert list(both.pair_j) == [2, 1]

    def test_concat_q_mismatch(self):
        _, batch = self._batch()
        with pytest.raises(AlgorithmError):
            batch.concat(CandidateBatch.empty(7))

    def test_concat_row_mismatch(self):
        _, batch = self._batch()
        other = CandidateBatch(
            batch.supports, batch.pair_i, batch.pair_j, batch.row + 1
        )
        with pytest.raises(AlgorithmError):
            batch.concat(other)

    def test_concat_empty_adopts_row(self):
        _, batch = self._batch()
        # An empty batch has no row of its own; concat takes the other's.
        out = CandidateBatch.empty(batch.q).concat(batch)
        assert out.row == batch.row and out.n_modes == batch.n_modes

    def test_dedup_keeps_first_occurrence(self):
        _, batch = self._batch()
        doubled = batch.concat(batch)
        deduped = doubled.dedup()
        assert deduped.n_modes == 2
        assert list(deduped.pair_j) == list(batch.pair_j)

    def test_dedup_noop_returns_self(self):
        _, batch = self._batch()
        assert batch.dedup() is batch

    def test_wire_roundtrip(self):
        # The wire is supports + int32 pair indices only; the receiver
        # supplies the iteration row from its own (lockstep) loop counter
        # and derives the coefficients at materialization.
        source, batch = self._batch()
        back = CandidateBatch.from_wire(batch.to_wire(), batch.q, batch.row)
        assert np.array_equal(back.supports.words, batch.supports.words)
        assert np.array_equal(back.pair_i, batch.pair_i)
        assert np.array_equal(back.pair_j, batch.pair_j)
        assert back.row == batch.row
        assert np.array_equal(
            back.materialize(source.values).values,
            batch.materialize(source.values).values,
        )

    def test_length_mismatch_rejected(self):
        _, batch = self._batch()
        with pytest.raises(AlgorithmError):
            CandidateBatch(
                batch.supports, batch.pair_i[:1], batch.pair_j, batch.row
            )

    def test_empty(self):
        e = CandidateBatch.empty(9)
        assert e.n_modes == 0 and e.q == 9 and e.nbytes() >= 0


class TestDedupIndexAccounting:
    """The streaming dedup index travels with its result object; memory
    accounting must see it for as long as the candidates are alive."""

    def _index(self, n_words, rows=4):
        from repro.core.iterstream import SupportIndex

        idx = SupportIndex(n_words)
        idx.add(np.arange(1, rows + 1, dtype=np.uint64).reshape(rows, 1)
                if n_words == 1 else
                np.arange(1, rows * n_words + 1, dtype=np.uint64)
                .reshape(rows, n_words))
        return idx

    def test_mode_matrix_nbytes_includes_index(self):
        m = ModeMatrix(np.eye(5))
        base = m.nbytes()
        m.dedup_index = self._index(m.supports.words.shape[1])
        assert m.nbytes() == base + m.dedup_index.nbytes()
        assert m.dedup_index.nbytes() > 0

    def test_candidate_batch_nbytes_includes_index(self):
        mask = np.zeros((3, 6), dtype=bool)
        mask[:, 0] = True
        batch = CandidateBatch(
            PackedSupports.from_bool(mask.T),
            np.array([0, 1, 2]), np.array([3, 4, 5]), 0,
        )
        base = batch.nbytes()
        batch.dedup_index = self._index(batch.supports.words.shape[1])
        assert batch.nbytes() == base + batch.dedup_index.nbytes()

    def test_derived_matrices_drop_the_index(self):
        # select/concat build new matrices for the *next* iteration — the
        # finished iteration's streaming state must not be charged to them.
        m = ModeMatrix(np.eye(4))
        m.dedup_index = self._index(m.supports.words.shape[1])
        assert m.select(np.array([0, 1])).dedup_index is None
        assert m.concat(ModeMatrix(np.eye(4))).dedup_index is None


class TestSupportIndexMembership:
    """``SupportIndex.seen`` over two-word supports, checked against a
    set-of-tuples oracle of the frozen rows plus every appended row, the
    way the candidate phase drives it: probe a chunk, append the first
    occurrence of each unseen row."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pool=st.integers(1, 40),
        n_frozen=st.integers(0, 30),
        chunks=st.lists(st.integers(0, 60), max_size=6),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_seen_matches_set_oracle(self, seed, n_pool, n_frozen, chunks):
        from repro.core.iterstream import SupportIndex
        from repro.linalg import bitset

        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2**64, size=(n_pool, 2), dtype=np.uint64)
        frozen = pool[rng.integers(0, n_pool, n_frozen)]
        idx = SupportIndex(2, frozen=frozen)
        frozen_rows = {tuple(row) for row in frozen.tolist()}
        oracle = set(frozen_rows)
        for size in chunks:
            probe = pool[rng.integers(0, n_pool, size)]
            hit = idx.seen(probe)
            assert hit.tolist() == [tuple(row) in oracle for row in probe.tolist()]
            fresh, _ = bitset.unique_rows(probe[~hit])
            idx.add(fresh)
            oracle.update(tuple(row) for row in fresh.tolist())
        appended = {tuple(row) for row in idx.words.tolist()}
        assert len(appended) == len(idx)
        assert appended == oracle - frozen_rows
