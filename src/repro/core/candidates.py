"""Candidate elementary-mode generation (GenerateEFMCands).

At iteration ``k`` every mode with a positive entry in row ``k`` pairs with
every mode with a negative entry; the convex combination

    cand = (-neg_k) * pos_mode + (pos_k) * neg_mode

annihilates row ``k`` (both coefficients are positive, so the combination
stays inside the flux cone).  Generation is vectorized in chunks of
pairs (:func:`survivor_chunks`); a packed-support union popcount prefilter
("summary rejection": a support larger than ``rank+1`` cannot have nullity
1) drops most pairs before any combination is formed.  The chunks' raw
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
import functools
from collections.abc import Iterator

import numpy as np

from repro.config import AlgorithmOptions
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats
from repro.linalg import bitset


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


#: Pair spaces below this size take the cached template path of
#: :func:`survivor_chunks`: such iterations are dominated by per-call
#: numpy dispatch, and their shapes repeat heavily within a run.
TEMPLATE_MAX_PAIRS = 4096


@functools.lru_cache(maxsize=256)
def _tiny_pair_template(n_pos: int, n_neg: int):
    """Cached ``(a, b)`` list-position vectors of the full i-major pair
    enumeration for a tiny ``n_pos x n_neg`` space (read-only; shapes
    repeat heavily across iterations, so most calls cost zero dispatches).
    """
    a, b = np.divmod(np.arange(n_pos * n_neg, dtype=np.intp), n_neg)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


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
    combination chunk, and the chunk's transient working-set bytes (pair vectors,
    gathered words, prefilter mask and the dense chunk — already folded
    into ``stats.prefilter_bytes``).

    ``chunk_pairs`` bounds the pairs per chunk (default
    ``options.pair_chunk``).  Chunk granularity never changes the pair
    enumeration order: both paths (the cached tiny-space template and the
    plain chunked range) enumerate the range's pairs i-major, so any two
    chunkings yield identical survivors in identical order.

    ``rank_bound`` is the rank of the stoichiometry: a candidate whose
    support exceeds ``rank_bound + 1`` entries is summarily rejected (the
    prefilter tests the pair's support *union*, which overcounts the true
    support by at least the annihilated row ``k``, hence the ``+ 2``
    below).
    """
    n_neg = neg_idx.size
    vals = modes.values
    sup = modes.supports.words
    col = vals[:, k]
    n_words = sup.shape[1]
    sup1 = sup[:, 0] if n_words == 1 else None
    if chunk_pairs is None:
        chunk_pairs = options.pair_chunk
    chunk_pairs = max(1, int(chunk_pairs))

    peak_transient = 0
    max_union = rank_bound + 2

    n_pairs_space = int(pos_idx.size) * int(n_neg)
    if n_pairs_space < TEMPLATE_MAX_PAIRS:
        # Tiny space: slice the cached i-major template instead of
        # building pair vectors (same pairs, same order as the chunked
        # range below).
        a_t, b_t = _tiny_pair_template(int(pos_idx.size), int(n_neg))
        sl = slice(pair_range.start, pair_range.stop, pair_range.step)
        a_t, b_t = a_t[sl], b_t[sl]
        chunks = (
            (a_t[s : s + chunk_pairs], b_t[s : s + chunk_pairs])
            for s in range(0, int(a_t.size), chunk_pairs)
        )
    else:
        chunks = (
            np.divmod(p_chunk, n_neg)
            for p_chunk in _iter_pair_chunks(pair_range, chunk_pairs)
        )

    for a_sel, b_sel in chunks:
        m = int(a_sel.size)
        if m == 0:
            continue
        # Transient working set of this chunk before any survivor work:
        # pair-index vectors plus the gathered/ORed support words and the
        # prefilter mask.
        transient = m * (32 + 24 * n_words + 1)
        peak_transient = max(peak_transient, transient)
        i_sel = pos_idx[a_sel]
        j_sel = neg_idx[b_sel]
        if sup1 is not None:
            ok = np.bitwise_count(sup1[i_sel] | sup1[j_sel]) <= max_union
        else:
            ok = bitset.popcount(sup[i_sel] | sup[j_sel]) <= max_union
        if not ok.any():
            continue
        i_ok = i_sel[ok]
        j_ok = j_sel[ok]
        stats.n_prefilter_kept += int(i_ok.size)
        a = -col[j_ok]  # > 0
        b = col[i_ok]  # > 0
        cand = vals[i_ok] * a[:, None] + vals[j_ok] * b[:, None]
        # ... plus the dense candidate chunk (dropped once its supports
        # are extracted, but it exists — on_oom decisions must see it).
        transient += cand.nbytes
        peak_transient = max(peak_transient, transient)
        stats.prefilter_bytes = max(stats.prefilter_bytes, peak_transient)
        yield i_ok, j_ok, cand, transient


def _iter_pair_chunks(pair_range: PairRange, chunk: int):
    """Yield int64 arrays of linear pair indices covering ``pair_range`` in
    chunks of at most ``chunk`` pairs."""
    if pair_range.step == 1:
        for start in range(pair_range.start, pair_range.stop, chunk):
            yield np.arange(
                start, min(start + chunk, pair_range.stop), dtype=np.int64
            )
    else:
        total = pair_range.count()
        for c0 in range(0, total, chunk):
            c1 = min(c0 + chunk, total)
            yield pair_range.start + pair_range.step * np.arange(
                c0, c1, dtype=np.int64
            )
