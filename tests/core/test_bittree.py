"""Unit tests for the candidate phase's support index and the adjacency
test oracle."""

import numpy as np

from repro.core.iterstream import SupportIndex
from repro.linalg import bitset
from tests.core.adjacency_oracle import AdjacencyTest, processed_rows_mask


def _pack(rows_of_bits, n_rows):
    mask = np.zeros((n_rows, len(rows_of_bits)), dtype=bool)
    for j, bits in enumerate(rows_of_bits):
        for b in bits:
            mask[b, j] = True
    return bitset.pack_supports(mask)


class TestProcessedRowsMask:
    def test_mask_excludes_current_row(self):
        mask = processed_rows_mask(10, 4)  # rows 0..3
        bits = bitset.unpack_supports(mask[None, :], 10)[:, 0]
        assert bits.tolist() == [True] * 4 + [False] * 6

    def test_mask_zero(self):
        mask = processed_rows_mask(70, 0)
        assert (mask == 0).all()


class TestAdjacencyTest:
    def test_only_parents_adjacent(self):
        # current modes: p={0,2}, n={1,2}, other={3}
        words = _pack([{0, 2}, {1, 2}, {3}], 8)
        adj = AdjacencyTest(words, n_rows=8, k=4)
        union = words[0] | words[1]
        assert adj.adjacent(union[None, :])[0]

    def test_third_subset_witness_blocks(self):
        # witness {0} is a subset of the union {0,1,2} -> count 3 -> reject
        words = _pack([{0, 2}, {1, 2}, {0}], 8)
        adj = AdjacencyTest(words, n_rows=8, k=4)
        union = words[0] | words[1]
        assert not adj.adjacent(union[None, :])[0]

    def test_unprocessed_bits_ignored(self):
        # The witness differs only in row 6, beyond the processed prefix
        # (k=5): it still blocks because masked supports collide.
        words = _pack([{0, 2}, {1, 2}, {0, 6}], 8)
        adj = AdjacencyTest(words, n_rows=8, k=5)
        union = words[0] | words[1]
        assert not adj.adjacent(union[None, :])[0]

    def test_batch_shape(self):
        words = _pack([{0}, {1}, {2}], 8)
        adj = AdjacencyTest(words, n_rows=8, k=3)
        unions = np.stack([words[0] | words[1], words[1] | words[2]])
        assert adj.adjacent(unions).shape == (2,)


class TestSupportIndex:
    def test_empty_index_sees_nothing(self):
        idx = SupportIndex(1)
        probe = _pack([{0}, {1, 2}], 8)
        assert not idx.seen(probe).any()
        assert len(idx) == 0
        assert idx.n_probes == 2

    def test_add_then_seen(self):
        idx = SupportIndex(1)
        words = _pack([{0, 1}, {2}], 8)
        idx.add(words)
        assert len(idx) == 2
        probe = _pack([{0, 1}, {3}, {2}], 8)
        assert idx.seen(probe).tolist() == [True, False, True]

    def test_frozen_rows_probed_not_copied(self):
        frozen = _pack([{4, 5}], 8)
        idx = SupportIndex(1, frozen=frozen)
        assert idx.frozen is frozen  # borrowed reference, no copy
        probe = _pack([{4, 5}, {4}], 8)
        assert idx.seen(probe).tolist() == [True, False]
        # Frozen rows are charged to their owner (the mode matrix), not
        # the index; before any add() the index owns no buffer at all.
        assert idx.nbytes() == 0

    def test_nbytes_tracks_buffer_capacity(self):
        idx = SupportIndex(2)
        idx.add(np.ones((1, 2), dtype=bitset.WORD))
        # Geometric growth allocates capacity ahead of fill.
        assert idx.nbytes() >= 1 * 2 * 8
        cap_after_one = idx.nbytes()
        idx.add(np.full((3, 2), 7, dtype=bitset.WORD))
        assert len(idx) == 4
        assert idx.nbytes() >= cap_after_one

    def test_growth_preserves_earlier_rows(self):
        idx = SupportIndex(1)
        rng = np.random.default_rng(0)
        all_rows = rng.integers(1, 2**20, size=(300, 1)).astype(bitset.WORD)
        all_rows = np.unique(all_rows, axis=0)
        for start in range(0, all_rows.shape[0], 37):
            idx.add(all_rows[start : start + 37])
        assert idx.seen(all_rows).all()
        assert np.array_equal(idx.words, all_rows)

    def test_add_empty_is_noop(self):
        idx = SupportIndex(1)
        idx.add(np.empty((0, 1), dtype=bitset.WORD))
        assert len(idx) == 0
        assert idx.nbytes() == 0
