"""Candidate elementary-mode generation (GenerateEFMCands).

At iteration ``k`` every mode with a positive entry in row ``k`` pairs with
every mode with a negative entry; the convex combination

    cand = (-neg_k) * pos_mode + (pos_k) * neg_mode

annihilates row ``k`` (both coefficients are positive, so the combination
stays inside the flux cone).  Generation is vectorized in chunks of
pairs (:func:`survivor_chunks`); a packed-support union popcount prefilter
("summary rejection": a support larger than ``rank+1`` cannot have nullity
1), computed as one 2-D block per chunk, drops most pairs before any
pair index or combination is formed.  The chunks' raw
dense integer combinations are consumed one at a time by the candidate
phase (:mod:`repro.core.iterstream`), which keeps only their supports and
pair indices.

The pair index space ``[0, n_pos*n_neg)`` is linearized as
``p = i * n_neg + j``; the combinatorial parallel algorithm hands each rank
a strided subrange of the same space, so the serial path here is
literally the one-rank special case.  Every range is enumerated in this
i-major order, so the surviving pairs (and the EFM output) never depend on
the chunk size.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from repro.config import AlgorithmOptions
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats


@dataclasses.dataclass(frozen=True)
class PairRange:
    """A subrange of the linearized pair space assigned to one worker.

    ``strided`` ranges take pairs ``start, start+step, start+2*step, ...``
    (the combinatorial distribution of [17] — adjacent pairs land on
    different ranks, balancing cost); the serial full range takes
    ``[0, stop)`` with ``step == 1``.
    """

    start: int
    stop: int
    step: int = 1

    def count(self) -> int:
        if self.stop <= self.start:
            return 0
        return (self.stop - self.start + self.step - 1) // self.step


def full_range(n_pairs: int) -> PairRange:
    """The serial (single worker) pair range."""
    return PairRange(0, n_pairs, 1)


def strided_range(n_pairs: int, rank: int, size: int) -> PairRange:
    """Rank ``rank`` of ``size``'s combinatorial (cyclic) share."""
    return PairRange(rank, n_pairs, size)


def survivor_chunks(
    modes: ModeMatrix,
    k: int,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    pair_range: PairRange,
    rank_bound: int,
    options: AlgorithmOptions,
    stats: IterationStats,
    *,
    chunk_pairs: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Yield this worker's per-chunk generation survivors for row ``k``.

    The generation front-end of the candidate phase
    (:mod:`repro.core.iterstream`): i-major pair enumeration and the
    union-support prefilter.
    Each yielded tuple is ``(i_ok, j_ok, raw, transient)``: the surviving
    pairs' source-mode indices, the raw (not gcd-reduced) dense integer
    combination chunk, and the chunk's transient working-set bytes (the
    popcount block, the survivors' index vectors and the dense chunk —
    already folded into ``stats.prefilter_bytes``).

    ``chunk_pairs`` bounds the pairs per chunk (default
    ``options.pair_chunk``).  Each chunk's prefilter is one block: the
    union popcounts of the pos rows holding the chunk against every neg
    mode, a 2-D broadcast with no per-pair index vectors, of which the
    chunk is a flat (for a strided range, stepped) slice.  Only the
    survivors are turned back into ``(i, j)`` pairs.  Chunk granularity
    never changes the pair enumeration order: every chunk is read i-major,
    so any two chunkings yield identical survivors in identical order.

    ``rank_bound`` is the rank of the stoichiometry: a candidate whose
    support exceeds ``rank_bound + 1`` entries is summarily rejected (the
    prefilter tests the pair's support *union*, which overcounts the true
    support by at least the annihilated row ``k``, hence the ``+ 2``
    below).
    """
    n_neg = int(neg_idx.size)
    vals = modes.values
    col = vals[:, k]
    if chunk_pairs is None:
        chunk_pairs = options.pair_chunk
    chunk_pairs = max(1, int(chunk_pairs))
    max_union = rank_bound + 2
    step = pair_range.step
    # Word-major copies of the two sign classes' supports, gathered once
    # per call: each block's ORs broadcast one contiguous word row of each.
    sup = modes.supports.words
    pos_w = np.ascontiguousarray(sup[pos_idx].T)
    neg_w = np.ascontiguousarray(sup[neg_idx].T)
    n_words = sup.shape[1]

    peak_transient = 0
    total = pair_range.count()
    for c0 in range(0, total, chunk_pairs):
        # The chunk is pairs p = start + step * c, c in [c0, c1); rows
        # a0..a1 of the pos class hold all of them.
        p_first = pair_range.start + step * c0
        p_last = pair_range.start + step * (min(c0 + chunk_pairs, total) - 1)
        a0, a1 = p_first // n_neg, p_last // n_neg + 1
        off = p_first - a0 * n_neg
        # One (a1 - a0, n_neg) union popcount block; its flat index is
        # p - a0 * n_neg, so the chunk is the slice [off : ... : step].
        union = np.bitwise_count(pos_w[0, a0:a1, None] | neg_w[0])
        if n_words > 3:  # a sum of four words' counts can pass 255
            union = union.astype(np.uint16)
        for w in range(1, n_words):
            union += np.bitwise_count(pos_w[w, a0:a1, None] | neg_w[w])
        hit = np.flatnonzero(
            union.ravel()[off : p_last - a0 * n_neg + 1 : step] <= max_union
        )
        # Transient working set before any survivor work: the block's ORed
        # words (one word at a time), its counts and the prefilter mask.
        transient = union.size * 10
        del union
        peak_transient = max(peak_transient, transient)
        if hit.size == 0:
            continue
        rows, cols = np.divmod(off + step * hit, n_neg)
        i_ok = pos_idx[a0 + rows]
        j_ok = neg_idx[cols]
        stats.n_prefilter_kept += int(i_ok.size)
        # cand = vals[i] * -col[j] + vals[j] * col[i] (both factors > 0),
        # formed in place: two gathered row blocks, no product temporaries.
        cand = vals[i_ok]
        cand *= -col[j_ok][:, None]
        other = vals[j_ok]
        other *= col[i_ok][:, None]
        cand += other
        del other
        # ... plus the survivors' index vectors and the dense candidate
        # chunk (dropped once its supports are extracted, but it exists —
        # the peak must count it).
        transient += hit.size * 40 + cand.nbytes
        peak_transient = max(peak_transient, transient)
        stats.prefilter_bytes = max(stats.prefilter_bytes, peak_transient)
        yield i_ok, j_ok, cand, transient
