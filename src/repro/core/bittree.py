"""Bit-pattern superset test — the efmtool-style alternative acceptance
test (paper ref [19], Terzer & Stelling 2008).

A candidate generated at iteration ``k`` is elementary (within the current
iteration's cone) iff no mode of the *current* mode matrix has a support
that is a subset of the candidate's support.  Parent modes can never
trigger a false rejection: they carry a non-zero entry in row ``k`` that
the candidate annihilated, so their supports are never subsets.

Two implementations share one interface:

- :func:`subset_exists_vectorized` — numpy broadcast over packed words;
  fastest at the sizes pure Python reaches.
- :class:`BitPatternTree` — the actual tree of [19]: supports are
  recursively partitioned on a discriminating bit, and subtrees whose
  *union* pattern is not a subset of the query are pruned wholesale.  Kept
  for algorithmic fidelity and used by the acceptance-test ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import bitset


def subset_exists_vectorized(
    candidate_words: np.ndarray, reference_words: np.ndarray
) -> np.ndarray:
    """For each packed candidate support, does any reference support
    satisfy ``ref & cand == ref`` (subset-or-equal)?"""
    return bitset.subset_rows(candidate_words, reference_words)


class BitPatternTree:
    """Static bit-pattern tree over a set of packed supports.

    Built once per iteration from the current mode matrix's supports; the
    query :meth:`has_subset_of` answers "does the tree contain a support
    that is a subset of the query pattern?" in sub-linear time for
    clustered supports.

    Nodes split on the most-discriminating bit (closest to a 50/50 split)
    among bits still undecided in the node's pattern set; leaves hold up to
    ``leaf_size`` patterns and are scanned directly.  Every node caches the
    bitwise OR of its patterns — if that union is not a subset of the
    query, no pattern below can be, and the subtree is pruned.
    """

    __slots__ = ("words", "_root", "leaf_size")

    def __init__(self, words: np.ndarray, *, leaf_size: int = 16) -> None:
        self.words = np.ascontiguousarray(words, dtype=bitset.WORD)
        self.leaf_size = int(leaf_size)
        idx = np.arange(self.words.shape[0], dtype=np.intp)
        self._root = self._build(idx) if self.words.shape[0] else None

    def _build(self, idx: np.ndarray):
        pats = self.words[idx]
        union = np.bitwise_or.reduce(pats, axis=0)
        if idx.size <= self.leaf_size:
            return (union, idx, None, None, None)
        # Pick the bit whose set-count is closest to half the patterns —
        # one numpy pass: unpack the packed words to a (n, n_words*64)
        # bit matrix, column-sum, and argmin the distance to n/2.  Ties
        # and the ascending (word, bit) scan order of the reference
        # implementation are preserved by np.argmin's first-minimum rule.
        bits = np.unpackbits(
            pats.astype("<u8", copy=False).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        cnt = bits.sum(axis=0, dtype=np.int64)
        score = np.abs(cnt - idx.size / 2.0)
        score[(cnt == 0) | (cnt == idx.size)] = np.inf
        best_bit = int(np.argmin(score))
        if not np.isfinite(score[best_bit]):  # all patterns identical
            return (union, idx, None, None, None)
        has = bits[:, best_bit] != 0
        left = self._build(idx[has])  # bit set
        right = self._build(idx[~has])  # bit clear
        return (union, None, best_bit, left, right)

    def has_subset_of(self, query: np.ndarray) -> bool:
        """True iff some stored pattern is a subset of ``query`` (a packed
        1-D word vector)."""
        if self._root is None:
            return False
        stack = [self._root]
        while stack:
            union, leaf_idx, bit, left, right = stack.pop()
            if _is_subset(union, query):
                # The union of a (non-empty) subtree fits inside the query,
                # so every pattern below is a subset — immediate hit.
                return True
            if leaf_idx is not None:
                pats = self.words[leaf_idx]
                fits = ((pats & query[None, :]) == pats).all(axis=1)
                if fits.any():
                    return True
                continue
            assert bit is not None
            w, b = divmod(bit, bitset.BITS_PER_WORD)
            # The bit-clear subtree is always a candidate; the bit-set
            # subtree only if the query itself has the bit (a pattern with
            # a bit the query lacks can never be a subset).
            stack.append(right)
            if (query[w] >> bitset.WORD(b)) & bitset.WORD(1):
                stack.append(left)
        return False

    def query_batch(self, candidate_words: np.ndarray) -> np.ndarray:
        """Vector of :meth:`has_subset_of` answers for candidate rows.

        Level-synchronous frontier traversal: instead of walking the tree
        once per query, each tree node is visited once per *level* with
        the packed batch of queries still alive at it — the union-subset
        shortcut, leaf scans and child routing all run as vectorized
        numpy passes over that batch.  Answers are identical to the
        scalar walk.
        """
        queries = np.ascontiguousarray(candidate_words, dtype=bitset.WORD)
        n = queries.shape[0]
        out = np.zeros(n, dtype=bool)
        if self._root is None or n == 0:
            return out
        frontier = [(self._root, np.arange(n, dtype=np.intp))]
        while frontier:
            next_frontier = []
            for node, qidx in frontier:
                qidx = qidx[~out[qidx]]  # drop already-answered queries
                if qidx.size == 0:
                    continue
                union, leaf_idx, bit, left, right = node
                qs = queries[qidx]
                # Subtree-union shortcut: union ⊆ query ⇒ immediate hit.
                hit = ((qs & union[None, :]) == union[None, :]).all(axis=1)
                if hit.any():
                    out[qidx[hit]] = True
                    qidx = qidx[~hit]
                    if qidx.size == 0:
                        continue
                    qs = queries[qidx]
                if leaf_idx is not None:
                    pats = self.words[leaf_idx]
                    fits = (
                        (pats[None, :, :] & qs[:, None, :]) == pats[None, :, :]
                    ).all(axis=2).any(axis=1)
                    out[qidx[fits]] = True
                    continue
                assert bit is not None
                w, b = divmod(bit, bitset.BITS_PER_WORD)
                # Bit-clear subtree for everyone; bit-set subtree only for
                # queries that have the bit (see has_subset_of).
                next_frontier.append((right, qidx))
                has = (qs[:, w] >> bitset.WORD(b)) & bitset.WORD(1) != 0
                if has.any():
                    next_frontier.append((left, qidx[has]))
            frontier = next_frontier
        return out


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


def _is_subset(a: np.ndarray, b: np.ndarray) -> bool:
    """Packed word-vector subset test: ``a ⊆ b``."""
    return bool(((a & b) == a).all())


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
