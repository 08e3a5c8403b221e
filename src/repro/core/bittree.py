"""Packed-support index structures of the candidate phase.

- :class:`SupportIndex` — the appendable exact-membership index behind the
  candidate phase's incremental keep-first dedup.
- :class:`AdjacencyTest` — the combinatorial (bit-pattern) adjacency test
  of efmtool (paper ref [19], Terzer & Stelling 2008), the
  ``acceptance="bittree"`` alternative to the rank test.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import bitset


class SupportIndex:
    """Appendable exact-membership index over canonical packed supports —
    the incremental dedup structure of the candidate phase
    (:mod:`repro.core.iterstream`).

    The candidate phase consumes the pair space chunk by chunk, so dedup
    is *incremental*: a chunk's candidates are checked against the
    zero-entry survivors and every candidate *accepted* in earlier
    chunks, then the chunk's own accepted survivors are appended.
    Keep-first throughout, so the surviving candidate order — and
    therefore the EFM output — is bit-identical to one whole-set
    :func:`~repro.linalg.bitset.unique_rows` dedup: a later duplicate of
    an accepted (or zero-surviving) support is dropped exactly as the
    whole-set dedup drops it, and a later duplicate of a *rejected*
    support is re-tested instead — the rank test decides on the support
    pattern alone, so it is rejected again (a memo cache hit) and the
    output is unchanged; only the duplicate/tested counters depend on the
    chunking.  Rejected supports are deliberately not stored: on
    low-acceptance iterations the index stays a fraction of the tested
    set.

    Storage is a geometrically grown ``(capacity, n_words)`` uint64
    buffer.  Probes are binary searches: each :meth:`seen` call has
    :func:`~repro.linalg.bitset.rows_in` sort the filled prefix (and the
    frozen rows) and search every probe row into them.  ``frozen`` rows
    (the zero-entry survivors' supports) are held as a borrowed read-only
    reference, not copied: they live in the iteration's mode matrix either
    way, so :meth:`nbytes` charges only the appendable buffer, the memory
    the dedup state actually adds.
    """

    __slots__ = ("n_words", "frozen", "_buf", "_n", "n_probes")

    def __init__(self, n_words: int, frozen: np.ndarray | None = None) -> None:
        self.n_words = int(n_words)
        self.frozen = (
            frozen
            if frozen is not None and frozen.shape[0]
            else np.empty((0, self.n_words), dtype=bitset.WORD)
        )
        self._buf = np.empty((0, self.n_words), dtype=bitset.WORD)
        self._n = 0
        #: candidates probed against the index (streaming stats).
        self.n_probes = 0

    def __len__(self) -> int:
        return self._n

    @property
    def words(self) -> np.ndarray:
        """The filled prefix of the buffer (read-only view semantics:
        callers must not mutate)."""
        return self._buf[: self._n]

    def nbytes(self) -> int:
        """Allocated buffer bytes (capacity, not fill — the allocation is
        what the node pays for; borrowed ``frozen`` rows are charged to
        their owner, the mode matrix)."""
        return int(self._buf.nbytes)

    def seen(self, words: np.ndarray) -> np.ndarray:
        """Boolean mask: is each row already present in the index (frozen
        reference rows or appended ones)?"""
        self.n_probes += int(words.shape[0])
        hit = bitset.rows_in(words, self.words)
        if self.frozen.shape[0]:
            hit |= bitset.rows_in(words, self.frozen)
        return hit

    def add(self, words: np.ndarray) -> None:
        """Append rows (caller guarantees they are not already present —
        :meth:`seen` filtered them; duplicates *within* ``words`` are the
        caller's responsibility too, via first-occurrence dedup)."""
        m = int(words.shape[0])
        if m == 0:
            return
        need = self._n + m
        if need > self._buf.shape[0]:
            cap = max(need, 2 * self._buf.shape[0], 64)
            grown = np.empty((cap, self.n_words), dtype=bitset.WORD)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : need] = words
        self._n = need


def processed_rows_mask(n_rows: int, upto_position: int) -> np.ndarray:
    """Packed word mask selecting support bits of rows ``0..upto_position-1``
    (exclusive of ``upto_position``).

    The double-description adjacency test only 'sees' the inequality
    constraints processed *before* the current row: the zero sets being
    compared are over the identity-block rows plus the already-processed
    ``R2`` rows.  Including later rows (or the in-flight row ``k``) makes
    the combinatorial test disagree with the algebraic rank test in both
    directions — observed concretely as non-elementary survivors and as
    falsely rejected modes on random networks.
    """
    mask_bits = np.zeros((n_rows, 1), dtype=bool)
    mask_bits[:upto_position, 0] = True
    return bitset.pack_supports(mask_bits)[0]


class AdjacencyTest:
    """The combinatorial (bit-pattern) adjacency test of the double
    description method, as used by efmtool [19].

    A pair ``(p, n)`` of current modes is *adjacent* — and its convex
    combination a new elementary mode — iff no **third** current mode's
    zero set (over the processed rows) contains ``Z(p) ∩ Z(n)``.  In
    support language: counting current modes whose masked support is a
    subset of ``supp(p) | supp(n)`` must find exactly the two parents.

    Unlike the algebraic rank test this is a per-*pair* test and must run
    **before** duplicate removal: a ray generated by both an adjacent and a
    non-adjacent pair must be judged on the adjacent one.

    ``processed`` lists the row positions whose constraints the test may
    "see" — the identity block plus every row eliminated *before* the
    current one.  Static orderings process positions in ascending order,
    so their processed set is exactly the prefix ``0..k-1`` and the
    argument may be omitted; dynamic row selection eliminates rows out of
    position order, making the explicit set mandatory (a prefix mask
    would include constraints not yet enforced and exclude enforced ones,
    breaking the test in both directions).
    """

    __slots__ = ("refs", "mask")

    def __init__(
        self,
        current_words: np.ndarray,
        n_rows: int,
        k: int,
        processed: np.ndarray | None = None,
    ) -> None:
        if processed is None:
            self.mask = processed_rows_mask(n_rows, k)
        else:
            mask_bits = np.zeros((n_rows, 1), dtype=bool)
            mask_bits[np.asarray(processed, dtype=np.intp), 0] = True
            self.mask = bitset.pack_supports(mask_bits)[0]
        self.refs = current_words & self.mask[None, :]

    def adjacent(self, pair_union_words: np.ndarray) -> np.ndarray:
        """Boolean mask over pairs; ``pair_union_words[i]`` is the bitwise
        OR of the two parents' (unmasked) support words."""
        masked = pair_union_words & self.mask[None, :]
        return bitset.subset_count_rows(masked, self.refs) == 2
