"""Packed support patterns (bitsets) for flux modes.

Each mode's support (the set of reactions with non-zero flux) is packed into
``n_words = ceil(n_rows / 64)`` unsigned 64-bit words.  All hot operations
of the Nullspace Algorithm — duplicate removal, the candidate prefilter
(union popcount), and the bit-pattern superset test — reduce to bitwise ops
on a ``(n_modes, n_words)`` uint64 array, which numpy vectorizes.

Bit ``r`` of a support (row ``r`` of the mode matrix) lives in word
``r >> 6`` at position ``r & 63``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LinAlgError

#: Dtype of packed support words.
WORD = np.uint64
BITS_PER_WORD = 64

#: Byte budget of one transient of the rank test's inner loops: a chunk
#: of the zero-mode pre-screen's broadcast (:func:`subset_rows`) and a
#: block of the modular rank kernel's eliminations
#: (:mod:`repro.linalg.modular`).  Small next to the mode matrix, so
#: neither sets a solve's peak memory; large enough that the per-chunk
#: dispatch cost stays negligible.
TRANSIENT_BYTES = 1 << 20


def n_words_for(n_rows: int) -> int:
    """Number of uint64 words needed for ``n_rows`` support bits."""
    return max(1, (n_rows + BITS_PER_WORD - 1) // BITS_PER_WORD)


class PackedSupports:
    """A batch of packed support patterns.

    Thin, validated wrapper around a ``(n_modes, n_words)`` uint64 array.
    Instances are append-free; all operations return new arrays/objects.
    """

    __slots__ = ("words", "n_rows")

    def __init__(self, words: np.ndarray, n_rows: int) -> None:
        words = np.ascontiguousarray(words, dtype=WORD)
        if words.ndim != 2:
            raise LinAlgError("PackedSupports expects a 2-D word array")
        if words.shape[1] != n_words_for(n_rows):
            raise LinAlgError(
                f"word count {words.shape[1]} inconsistent with n_rows={n_rows}"
            )
        self.words = words
        self.n_rows = n_rows

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, n_rows: int) -> "PackedSupports":
        """Zero-mode batch."""
        return cls(np.zeros((0, n_words_for(n_rows)), dtype=WORD), n_rows)

    @classmethod
    def from_bool(cls, mask: np.ndarray) -> "PackedSupports":
        """Pack a boolean ``(n_rows, n_modes)`` column-support mask."""
        return cls(pack_supports(mask), mask.shape[0])

    @classmethod
    def _wrap(cls, words: np.ndarray, n_rows: int) -> "PackedSupports":
        """Internal fast path: ``words`` is already a contiguous uint64
        ``(n_modes, n_words)`` array of the right width (hot per-iteration
        construction sites — slicing, merge assembly)."""
        out = cls.__new__(cls)
        out.words = words
        out.n_rows = n_rows
        return out

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, idx) -> "PackedSupports":
        sel = self.words[idx]
        if sel.ndim == 1:
            sel = sel[None, :]
        return PackedSupports._wrap(np.ascontiguousarray(sel), self.n_rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSupports):
            return NotImplemented
        return self.n_rows == other.n_rows and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:  # pragma: no cover - mutable array, not hashable
        raise TypeError("PackedSupports is not hashable")

    def copy(self) -> "PackedSupports":
        return PackedSupports(self.words.copy(), self.n_rows)

    # -- queries -----------------------------------------------------------

    def popcounts(self) -> np.ndarray:
        """Support sizes, shape ``(n_modes,)`` int64."""
        return popcount(self.words)

    def to_bool(self) -> np.ndarray:
        """Unpack to a boolean ``(n_rows, n_modes)`` mask."""
        return unpack_supports(self.words, self.n_rows)

    def test_bit(self, row: int) -> np.ndarray:
        """Boolean vector: does each mode have bit ``row`` set?"""
        w, b = divmod(row, BITS_PER_WORD)
        return (self.words[:, w] >> WORD(b)) & WORD(1) != 0

    def nbytes(self) -> int:
        return int(self.words.nbytes)

    # -- combination -------------------------------------------------------

    def concat(self, other: "PackedSupports") -> "PackedSupports":
        if other.n_rows != self.n_rows:
            raise LinAlgError("concat of PackedSupports with mismatched n_rows")
        return PackedSupports._wrap(
            np.concatenate([self.words, other.words]), self.n_rows
        )


def pack_supports(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n_rows, n_modes)`` mask into ``(n_modes, n_words)``
    uint64 words (bit r of mode j == mask[r, j])."""
    if mask.ndim != 2:
        raise LinAlgError("pack_supports expects a 2-D mask")
    return pack_support_rows(np.ascontiguousarray(mask.T))


def pack_support_rows(by_mode: np.ndarray) -> np.ndarray:
    """Pack a boolean row-major ``(n_modes, n_rows)`` mask into
    ``(n_modes, n_words)`` uint64 words — the lean per-iteration packer.

    ``np.packbits(bitorder="little")`` emits bytes whose bit ``r & 7`` is
    row ``r``; reinterpreting 8 little-endian bytes as one uint64 puts row
    ``r`` at word bit ``r & 63`` — the layout documented above — without
    any per-bit multiply/sum.  Unlike :func:`pack_supports` this takes the
    mask in the orientation the hot callers already hold (one mode per
    row), so no transpose copy, dtype round-trip or ``np.pad`` happens.
    """
    if by_mode.ndim != 2:
        raise LinAlgError("pack_support_rows expects a 2-D mask")
    n_modes, n_rows = by_mode.shape
    n_bytes = n_words_for(n_rows) * (BITS_PER_WORD // 8)
    packed = np.packbits(by_mode, axis=1, bitorder="little")
    if packed.shape[1] != n_bytes:
        full = np.zeros((n_modes, n_bytes), dtype=np.uint8)
        full[:, : packed.shape[1]] = packed
        packed = full
    return packed.view("<u8").astype(WORD, copy=False)


def unpack_supports(words: np.ndarray, n_rows: int) -> np.ndarray:
    """Inverse of :func:`pack_supports`."""
    n_modes, nw = words.shape
    as_bytes = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")  # (n_modes, nw*64)
    return np.ascontiguousarray(bits[:, :n_rows].T.astype(bool))


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed word array: shape ``(n_modes,)``."""
    if words.shape[1] == 1:
        # Networks up to 64 reactions: skip the axis reduction entirely.
        return np.bitwise_count(words[:, 0]).astype(np.int64)
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def union_popcount(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Popcount of the bitwise OR of paired rows of ``a`` and ``b``.

    ``a`` and ``b`` must have equal shapes ``(n_pairs, n_words)``; this is
    the candidate-generation prefilter workhorse.
    """
    if a.shape[1] == 1:
        return np.bitwise_count(a[:, 0] | b[:, 0]).astype(np.int64)
    return np.bitwise_count(a | b).sum(axis=1, dtype=np.int64)


def subset_rows(candidates: np.ndarray, references: np.ndarray) -> np.ndarray:
    """For each candidate row, is *some* reference row a subset of it?

    Strict-or-equal subset test: reference ``r`` is a subset of candidate
    ``c`` iff ``r & ~c == 0``.  Returns a boolean ``(n_candidates,)`` array
    that is True when at least one reference (other than an identical
    pattern — equality also counts True here; callers exclude self-matches
    by construction).  Complexity O(n_candidates * n_references * n_words)
    vectorized in candidate chunks whose ``(chunk, n_references,
    n_words)`` broadcast transient stays within :data:`TRANSIENT_BYTES`.
    """
    n_c = candidates.shape[0]
    n_r = references.shape[0]
    out = np.zeros(n_c, dtype=bool)
    if n_c == 0 or n_r == 0:
        return out
    # Per (candidate, reference) pair: the masked words, their zero mask
    # and the reduced hit flag.
    chunk = max(1, TRANSIENT_BYTES // (n_r * (9 * candidates.shape[1] + 1)))
    outside = ~candidates
    for start in range(0, n_c, chunk):
        cs = outside[start : start + chunk, None, :]  # (c, 1, w)
        out[start : start + chunk] = (
            ((references[None, :, :] & cs) == 0).all(axis=2).any(axis=1)
        )
    return out


def unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate packed rows.

    Returns ``(unique_words, first_index)`` where ``first_index`` gives, for
    each unique row, the index of its first occurrence in the input (order
    of unique rows follows np.unique's lexicographic word order, which is a
    deterministic canonical order — the "sort by binary representation"
    step of the paper).
    """
    if words.shape[0] == 0:
        return words.copy(), np.zeros(0, dtype=np.intp)
    if words.shape[1] == 1:
        # Networks up to 64 reactions pack into one word — skip the
        # structured-view machinery (this runs once per iteration per rank).
        _, first_idx = np.unique(words[:, 0], return_index=True)
    else:
        view = words.view([("", WORD)] * words.shape[1]).ravel()
        _, first_idx = np.unique(view, return_index=True)
    first_idx.sort()  # preserve first-occurrence order for determinism
    return words[first_idx], first_idx


def rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Membership test: for each row of ``a``, does it occur in ``b``?

    Both arrays are packed ``(n, n_words)`` uint64.  Used by the streaming
    dedup probe (:meth:`repro.core.iterstream.SupportIndex.seen`).

    Sorted search: ``b``'s rows are sorted once — the word itself when a
    support fits in one word, else a fixed-width ``np.void`` key per row
    (a byte order, not the lexicographic word order, but a total order
    consistent with row equality) — and each row of ``a`` is binary
    searched into them: O((n_a + n_b) log n_b).  Keep ``np.unique`` off
    this path: called without index outputs, its first call imports
    ``numpy.ma`` inside the solve (``TestColdSolveImports`` pins that).
    """
    if b.shape[0] == 0:
        return np.zeros(a.shape[0], dtype=bool)
    if a.shape[1] == 1:
        keys, ref = a[:, 0], np.sort(b[:, 0])
    else:
        row = np.dtype((np.void, a.shape[1] * (BITS_PER_WORD // 8)))
        keys = np.ascontiguousarray(a).view(row).ravel()
        ref = np.sort(np.ascontiguousarray(b).view(row).ravel())
    pos = np.searchsorted(ref, keys)
    np.minimum(pos, ref.shape[0] - 1, out=pos)
    return ref[pos] == keys
