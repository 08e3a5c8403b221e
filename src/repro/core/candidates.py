"""Candidate elementary-mode generation (GenerateEFMCands).

At iteration ``k`` every mode with a positive entry in row ``k`` pairs with
every mode with a negative entry; the convex combination

    cand = (-neg_k) * pos_mode + (pos_k) * neg_mode

annihilates row ``k`` (both coefficients are positive, so the combination
stays inside the flux cone).  Generation is vectorized in chunks of
pairs (:func:`survivor_chunks`); a packed-support union popcount prefilter
("summary rejection": a support larger than ``rank+1`` cannot have nullity
1) drops most pairs before any float work happens.  The chunks' raw dense
combinations are consumed one at a time by the candidate phase
(:mod:`repro.core.iterstream`), which keeps only supports and pair indices
for float runs.

The pair index space ``[0, n_pos*n_neg)`` is linearized as
``p = i * n_neg + j``; the combinatorial parallel algorithm hands each rank
a strided or blocked subrange of the same space, so the serial path here is
literally the one-rank special case.  The "tiled" strategy instead hands
each rank a contiguous share of zone-map *tiles* (:class:`TiledRange`,
:mod:`repro.core.pairspace`): pruned tiles are dropped before their pair
indices are even materialized, and tiles whose zone bound proves every
pair passes skip the per-pair prefilter entirely.  With
``options.pair_pruning == "tiles"`` the legacy ranges also consult the
zone maps through a per-chunk mask.  Either way only pairs the per-pair
prefilter would reject are skipped and the enumeration order of surviving
pairs is unchanged, so the EFM output is bit-identical to
``pair_pruning == "none"``.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator

import numpy as np

from repro.config import AlgorithmOptions
from repro.core.pairspace import MIN_PRUNE_PAIRS, PairSpace, resolve_block
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats
from repro.linalg import bitset


@dataclasses.dataclass(frozen=True)
class PairRange:
    """A subrange of the linearized pair space assigned to one worker.

    ``strided`` ranges take pairs ``start, start+step, start+2*step, ...``
    (the combinatorial distribution of [17] — adjacent pairs land on
    different ranks, balancing cost); plain block ranges take
    ``[start, stop)`` with ``step == 1``.
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


def block_range(n_pairs: int, rank: int, size: int) -> PairRange:
    """Rank ``rank`` of ``size``'s contiguous block share."""
    base, extra = divmod(n_pairs, size)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return PairRange(start, stop, 1)


@dataclasses.dataclass(frozen=True)
class TiledRange(PairRange):
    """Rank ``rank`` of ``size``'s tile-major share of the pair space.

    The actual tile partition depends on the iteration's supports and is
    built inside :func:`survivor_chunks`
    (:meth:`repro.core.pairspace.PairSpace.tile_share` — contiguous tile
    runs balanced by pair count); :meth:`count` is therefore only the
    balanced *estimate* and ``survivor_chunks`` overwrites
    ``stats.n_pairs`` with the exact owned-pair count.  ``start/stop/step``
    keep the full-range convention so code that only reads the space size
    stays correct.
    """

    rank: int = 0
    size: int = 1

    def count(self) -> int:
        base, extra = divmod(self.stop, max(1, self.size))
        return base + (1 if self.rank < extra else 0)


def tiled_range(n_pairs: int, rank: int, size: int) -> TiledRange:
    """Rank ``rank`` of ``size``'s tile share (the "tiled" strategy)."""
    return TiledRange(0, n_pairs, 1, rank, size)


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
    adjacency=None,
    chunk_pairs: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Yield this worker's per-chunk generation survivors for row ``k``.

    The generation front-end of the candidate phase
    (:mod:`repro.core.iterstream`): pair enumeration (template / tiled /
    legacy order), zone-map pruning, the union-support prefilter and the
    optional per-pair adjacency test.  Each yielded tuple is ``(i_ok, j_ok, raw,
    transient)``: the surviving pairs' source-mode indices, the raw
    (un-normalized) dense combination chunk, and the chunk's transient
    working-set bytes (pair vectors, gathered words, prefilter mask, the
    dense chunk, zone maps — already folded into ``stats.prefilter_bytes``).

    ``chunk_pairs`` bounds the pairs per chunk (default
    ``options.pair_chunk``).  Chunk *granularity* never changes the pair
    enumeration order — only which path is taken does, and every path
    decision (tiny-template gate, block resolution, tile geometry) depends
    solely on the space shape and ``options``, never on ``chunk_pairs`` —
    so any two chunkings enumerate identical survivors in identical order.

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

    # -- zone-map layer ----------------------------------------------------
    tiled = isinstance(pair_range, TiledRange)
    n_pairs_space = int(pos_idx.size) * int(n_neg)
    prune = options.pair_pruning == "tiles"
    space = None
    # Tiny spaces (below the MIN_PRUNE_PAIRS gate, where zone maps never
    # build) take a template fast path: cached i-major chunks, no
    # clustering, no tile geometry.  Iterations here are dominated by
    # per-call dispatch overhead, and the condition is independent of the
    # pruning switch, so both arms enumerate identically (skip-only parity
    # is trivial: nothing is skipped).  The gate reads ``options.pair_chunk``
    # — never the effective ``chunk_pairs`` — so every chunk size takes
    # the same arm and enumerates in the same order.
    fast = (
        n_pairs_space < MIN_PRUNE_PAIRS
        and n_pairs_space <= options.pair_chunk
        and (pair_range.size == 1 if tiled else True)
    )
    if fast:
        a_t, b_t = _tiny_pair_template(int(pos_idx.size), int(n_neg))
        if tiled:
            stats.n_pairs = n_pairs_space
        else:
            sl = slice(pair_range.start, pair_range.stop, pair_range.step)
            a_t, b_t = a_t[sl], b_t[sl]
        chunks = (
            (a_t[s : s + chunk_pairs], b_t[s : s + chunk_pairs], None, 0)
            for s in range(0, int(a_t.size), chunk_pairs)
        )
    # Zone maps only pay for themselves once the pair space is big enough
    # to amortize their construction (PairSpace applies the
    # MIN_PRUNE_PAIRS gate itself); the non-tiny tiled path always builds
    # the (cheap) clustering + tile geometry — the enumeration order must
    # not depend on the pruning switch.
    else:
        blk = resolve_block(options.pair_block, n_pairs_space)
        if tiled or (prune and n_pairs_space >= MIN_PRUNE_PAIRS):
            space = PairSpace(
                sup, pos_idx, neg_idx, rank_bound, block=blk, prune=prune,
            )
        if tiled:
            share = space.tile_share(pair_range.rank, pair_range.size)
            stats.n_pairs = space.share_pair_count(share)
            stats.n_tiles_total += int(share.size)
            if space.live is not None:
                stats.n_tiles_pruned += int(
                    share.size - np.count_nonzero(space.live.ravel()[share])
                )
            chunks = space.iter_share_chunks(share, chunk_pairs)
        else:
            if space is not None:
                # Per-rank work counters: each rank builds and evaluates
                # its own tile map, so the counts sum across ranks like
                # the other work counters do.
                stats.n_tiles_total += space.n_tiles
                stats.n_tiles_pruned += space.n_tiles_pruned
                if not space.worth_masking:
                    space = None  # nothing skippable: stay on lean path
            chunks = _legacy_chunks(pair_range, chunk_pairs, n_neg, space)
        if space is not None:
            peak_transient = space.zone_map_nbytes()
            stats.prefilter_bytes = max(stats.prefilter_bytes, peak_transient)

    for a_sel, b_sel, known, skipped in chunks:
        stats.n_pairs_skipped += skipped
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
        union = None
        if adjacency is not None:
            # The adjacency test needs each surviving pair's union words,
            # so the known-pass shortcut is disabled (tile masks still
            # apply: masked pairs fail the prefilter and were never
            # adjacency-tested on the unpruned path either).
            known = None
        if known is True or (known is not None and known.all()):
            # Every pair in the chunk is from a full-pass tile (the tiled
            # path reports this as the all-or-nothing ``True`` sentinel):
            # the per-pair gather/OR/popcount prefilter is provably
            # redundant.
            i_ok = i_sel
            j_ok = j_sel
        elif known is not None and known.any():
            # Mixed chunk: run the per-pair prefilter only on pairs from
            # uncertain tiles, preserving the original pair order.
            unk = np.flatnonzero(~known)
            iu = i_sel[unk]
            ju = j_sel[unk]
            if sup1 is not None:
                oku = np.bitwise_count(sup1[iu] | sup1[ju]) <= max_union
            else:
                oku = bitset.union_popcount(sup[iu], sup[ju]) <= max_union
            ok = known.copy()
            ok[unk[oku]] = True
            i_ok = i_sel[ok]
            j_ok = j_sel[ok]
        else:
            if adjacency is None and sup1 is not None:
                ok = np.bitwise_count(sup1[i_sel] | sup1[j_sel]) <= max_union
            else:
                union = sup[i_sel] | sup[j_sel]
                ok = bitset.popcount(union) <= max_union
            if not ok.any():
                continue
            i_ok = i_sel[ok]
            j_ok = j_sel[ok]
        if i_ok.size == 0:
            continue
        stats.n_prefilter_kept += int(i_ok.size)
        if adjacency is not None:
            adj = adjacency.adjacent(union[ok])
            i_ok = i_ok[adj]
            j_ok = j_ok[adj]
            stats.n_adjacent += int(i_ok.size)
            if i_ok.size == 0:
                continue
        a = -col[j_ok]  # > 0
        b = col[i_ok]  # > 0
        cand = vals[i_ok] * a[:, None] + vals[j_ok] * b[:, None]
        # ... plus the dense candidate chunk (float runs drop it once
        # its supports are extracted, but it exists — on_oom decisions
        # must see it).
        transient += cand.nbytes
        peak_transient = max(peak_transient, transient)
        stats.prefilter_bytes = max(stats.prefilter_bytes, peak_transient)
        yield i_ok, j_ok, cand, transient


def _legacy_chunks(pair_range: PairRange, chunk: int, n_neg: int, space):
    """Yield ``(a, b, known, n_skipped)`` chunks of pos/neg list positions
    in the legacy (i-major) pair order, optionally masked by a
    :class:`~repro.core.pairspace.PairSpace` — masking is skip-only, so
    the relative order of surviving pairs never changes."""
    for p_chunk in _iter_pair_chunks(pair_range, chunk):
        a, b = np.divmod(p_chunk, n_neg)
        known = None
        skipped = 0
        if space is not None:
            keep, known = space.pair_masks(a, b)
            n_keep = int(np.count_nonzero(keep))
            if n_keep != keep.size:
                skipped = int(keep.size - n_keep)
                a = a[keep]
                b = b[keep]
                known = known[keep]
        yield a, b, known, skipped


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
