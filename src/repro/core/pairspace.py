"""Hierarchical pair-space pruning: bitset zone maps over candidate pairs.

``GenerateEFMCands`` enumerates the full ``n_pos x n_neg`` pair space and
pays two packed-word gathers, an OR and a popcount per pair just to apply
the union-support prefilter (``popcount(sup_i | sup_j) <= rank + 2``).
This module rejects *regions* of that space instead of individual pairs:

1. each side's mode list is clustered by support similarity — a
   lexicographic sort of the packed support words
   (:func:`repro.linalg.bitset.lexsort_rows`), which places modes sharing
   high-order support bits next to each other;
2. the sorted lists are partitioned into fixed-size blocks of
   ``options.pair_block`` modes, turning the pair space into a coarse grid
   of tiles (one tile = one pos-block x one neg-block);
3. every block carries a *zone map*: the AND (intersection) and OR (union)
   of its member supports plus the min popcount over members.

For a tile ``(P, N)`` three sound bounds follow for every pair
``(i in P, j in N)``:

* **prune, intersection bound** — ``sup_i | sup_j ⊇ AND(P) | AND(N)``, so
  ``popcount(AND_P | AND_N) > rank + 2`` proves every pair in the tile
  fails the prefilter: the whole tile is skipped with one popcount;
* **prune, cardinality bound** — ``|sup_i ∪ sup_j| >= |sup_i| + |sup_j| -
  |sup_i ∩ sup_j|`` and ``sup_i ∩ sup_j ⊆ OR(P) ∩ OR(N)``, so
  ``minpc(P) + minpc(N) - popcount(OR_P & OR_N) > rank + 2`` also prunes
  the tile (catches tiles of large disjoint supports the AND bound misses);
* **full-pass bound** — ``sup_i | sup_j ⊆ OR(P) | OR(N)``, so
  ``popcount(OR_P | OR_N) <= rank + 2`` proves every pair *passes* the
  prefilter: the per-pair gather/OR/popcount work is skipped for the tile
  ("known-pass" tiles).

At ``block == 1`` (the ``"auto"`` choice for small spaces) all three
collapse into one: the zone *is* the mode's support, the intersection
bound is the exact prefilter evaluated as a single broadcast popcount
over sorted supports, and every live tile is known-pass — no per-pair
prefilter runs at all.

Pruned tiles and *generation-ineligible* modes (a mode whose own support
already exceeds ``rank + 2`` can never appear in a surviving pair; zone
maps treat them as neutral elements) only ever remove pairs that the
per-pair prefilter would reject, and known-pass tiles only ever skip tests
that would succeed — the surviving pair set, its enumeration order, and
therefore the final EFM set are bit-identical with pruning on or off.

Two consumption modes (see :func:`repro.core.candidates.survivor_chunks`):
the legacy strategies ("strided"/"block"/serial full range) keep their pair
order and consult :meth:`PairSpace.pair_masks` per chunk; the "tiled"
strategy (:class:`repro.core.candidates.TiledRange`) enumerates tile-major
via :meth:`PairSpace.iter_share_chunks` — ranks receive contiguous,
pair-count-balanced tile shares, and pruned tiles' pairs are compressed
out of a *cached* expansion template (tile geometry and per-pair index
templates are pure functions of ``(n_pos, n_neg, block)`` and shared
across iterations, so the tile machinery adds almost no per-call cost).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.linalg import bitset
from repro.linalg.bitset import WORD

#: Popcount stand-in for "no eligible member" under a min-reduction; large
#: enough that any bound involving it exceeds every realistic rank.
_INF_PC = np.int64(1) << np.int64(40)

#: Below this pair-space size zone-map *bounds* are skipped (the tiled
#: strategy still builds the cheap clustering + tile geometry).  Zone
#: construction is ~10-30 numpy dispatches depending on block width, so
#: it only pays on calls where pruned pairs number in the thousands;
#: measured on yeast-I-small the 256..4096-pair calls cost more to
#: zone-map than they save at *every* block width (block 1 included —
#: the fixed dispatch cost dominates at those sizes).
MIN_PRUNE_PAIRS = 4096


@functools.lru_cache(maxsize=512)
def _geometry(n_pos: int, n_neg: int, block: int):
    """Tile geometry of an ``n_pos x n_neg`` space: pure function of the
    shape, cached across iterations (sizes repeat heavily within a run).
    Returns read-only arrays — every PairSpace of the same shape shares
    them."""
    n_pb = -(-n_pos // block)
    n_nb = -(-n_neg // block)
    pstart = np.arange(n_pb, dtype=np.int64) * block
    nstart = np.arange(n_nb, dtype=np.int64) * block
    psz = np.minimum(pstart + block, n_pos) - pstart
    nsz = np.minimum(nstart + block, n_neg) - nstart
    tile_pairs = psz[:, None] * nsz[None, :]
    # Pair offset of each tile in tile-major enumeration order.
    offs = np.zeros(tile_pairs.size + 1, dtype=np.int64)
    np.cumsum(tile_pairs.ravel(), out=offs[1:])
    for arr in (pstart, nstart, psz, nsz, tile_pairs, offs):
        arr.setflags(write=False)
    return n_pb, n_nb, pstart, nstart, psz, nsz, tile_pairs, offs


@functools.lru_cache(maxsize=512)
def _expand_template(n_pos: int, n_neg: int, block: int):
    """Per-pair expansion template for the tile-major order: for every
    pair position ``p`` in the full enumeration, the owning tile id and
    the *sorted-list* row/column it addresses.  Also a pure function of
    the shape; consuming a tile share reduces to slicing these arrays and
    gathering through ``porder``/``norder``."""
    n_pb, n_nb, pstart, nstart, psz, nsz, tile_pairs, offs = _geometry(
        n_pos, n_neg, block
    )
    n_tiles = n_pb * n_nb
    counts = tile_pairs.ravel()
    tile_of = np.repeat(np.arange(n_tiles, dtype=np.intp), counts)
    pb, nb = np.divmod(tile_of, n_nb)
    off = np.arange(tile_of.size, dtype=np.int64) - offs[tile_of]
    arow, bcol = np.divmod(off, nsz[nb])
    srow = pstart[pb] + arow
    scol = nstart[nb] + bcol
    for arr in (tile_of, srow, scol):
        arr.setflags(write=False)
    return tile_of, srow, scol


def resolve_block(pair_block: int | str, n_pairs: int) -> int:
    """Concrete block size for ``options.pair_block``.

    ``"auto"`` stays at block 1 while the full tile grid (``n_pairs``
    cells) is still cheap: single-mode blocks make the intersection bound
    *exact* (the zone is the support itself), so the whole prefilter
    collapses into one broadcast popcount over sorted supports with no
    per-pair index gathers — measured strictly faster than block 2, which
    prunes fewer pairs and pays reduceat construction on top.  Only once
    the grid itself would get large does it widen to 4-mode blocks to
    keep zone-map memory at ``n_pairs / 16`` cells.
    """
    if pair_block == "auto":
        return 1 if n_pairs <= (1 << 17) else 4
    return max(1, int(pair_block))


def _popcount_grid(words3d: np.ndarray) -> np.ndarray:
    """Popcount over the word axis of a ``(n_pb, n_nb, n_words)`` grid."""
    if words3d.shape[2] == 1:
        return np.bitwise_count(words3d[:, :, 0]).astype(np.int64)
    return np.bitwise_count(words3d).sum(axis=2, dtype=np.int64)


class PairSpace:
    """Zone maps over one iteration's ``pos x neg`` candidate-pair space.

    Parameters
    ----------
    words:
        The current mode matrix's packed supports ``(n_modes, n_words)``.
    pos_idx, neg_idx:
        Mode indices with positive / negative entries in the pivot row.
    rank_bound:
        The stoichiometry rank; the prefilter bound is ``rank_bound + 2``.
    block:
        Modes per zone-map block on each side (already resolved).
    prune:
        With ``False`` only the clustering and tile geometry are built (the
        "tiled" enumeration order must not depend on whether pruning is
        active); zone maps, bounds and eligibility masks are skipped and
        nothing is ever dropped.
    """

    __slots__ = (
        "n_pos", "n_neg", "n_pairs", "block", "max_union", "prune",
        "porder", "norder", "pblk_of", "nblk_of",
        "n_pb", "n_nb", "n_tiles", "pstart", "nstart", "psz", "nsz",
        "tile_pairs", "offs", "elig_pos", "elig_neg", "live", "known",
        "n_tiles_pruned", "zone_nbytes", "_all_elig", "_or_pn",
    )

    def __init__(
        self,
        words: np.ndarray,
        pos_idx: np.ndarray,
        neg_idx: np.ndarray,
        rank_bound: int,
        *,
        block: int,
        prune: bool = True,
    ) -> None:
        self.n_pos = int(pos_idx.size)
        self.n_neg = int(neg_idx.size)
        self.n_pairs = self.n_pos * self.n_neg
        self.block = int(block)
        self.max_union = int(rank_bound) + 2
        self.prune = bool(prune)

        pw = words[pos_idx]
        nw = words[neg_idx]
        # Cluster each side by support similarity; ``porder[s]`` is the
        # list position of the s-th mode in sorted order.
        self.porder = bitset.lexsort_rows(pw)
        self.norder = bitset.lexsort_rows(nw)
        # Inverse permutations (list position -> block id) are only needed
        # by the legacy per-pair masks; built lazily in pair_masks.
        self.pblk_of = None
        self.nblk_of = None

        (
            self.n_pb, self.n_nb, self.pstart, self.nstart,
            self.psz, self.nsz, self.tile_pairs, self.offs,
        ) = _geometry(self.n_pos, self.n_neg, self.block)
        self.n_tiles = self.n_pb * self.n_nb

        if not self.prune or self.n_pairs < MIN_PRUNE_PAIRS:
            # Pruning off — or the space is too small for zone bounds to
            # pay for their own construction.  Either way nothing is ever
            # skipped; the clustering and tile geometry above are all the
            # "tiled" enumeration needs, and they are identical with
            # pruning on or off (the order-parity requirement).
            self.elig_pos = self.elig_neg = None
            self.live = self.known = None
            self._or_pn = None
            self.n_tiles_pruned = 0
            self.zone_nbytes = 0
            self._all_elig = True
            return

        p_pc = bitset.popcount(pw)
        n_pc = bitset.popcount(nw)
        # Generation eligibility: a support already over the bound can
        # never shrink by pairing — such modes are neutral in the zone
        # maps and their pairs are dropped at enumeration time.
        self.elig_pos = p_pc <= self.max_union
        self.elig_neg = n_pc <= self.max_union

        # One fused reduction pass over both sides: concatenate the sorted
        # pos and neg words and reduceat with the pos starts followed by
        # the (shifted) neg starts — halves the number of numpy reduction
        # calls, which dominate zone construction at small tile counts.
        sw = np.concatenate((pw[self.porder], nw[self.norder]), axis=0)
        se = np.concatenate(
            (self.elig_pos[self.porder], self.elig_neg[self.norder])
        )
        spc = np.concatenate((p_pc[self.porder], n_pc[self.norder]))
        starts = np.concatenate((self.pstart, self.n_pos + self.nstart))
        all_elig = bool(se.all())
        if all_elig:
            aw, ow = sw, sw
            mpc = spc
        else:
            e = se[:, None]
            aw = np.where(e, sw, ~WORD(0))
            ow = np.where(e, sw, WORD(0))
            mpc = np.where(se, spc, _INF_PC)
        if self.block == 1:
            # One mode per block: the reduceats are identity maps (each
            # zone *is* its mode's support, with ineligible modes already
            # neutralized to all-ones by ``aw`` — their tiles die on the
            # popcount automatically) and the cardinality bound collapses
            # into the intersection bound (``min + min - |OR ∩ OR|``
            # equals ``|AND | AND|`` when AND = OR = sup).  The grid below
            # is therefore the exact per-pair prefilter evaluated on the
            # broadcast of sorted supports — no per-pair index gathers.
            and_z, or_z, min_z = aw, ow, mpc
            and_p, and_n = aw[: self.n_pb], aw[self.n_pb :]
            or_p, or_n = ow[: self.n_pb], ow[self.n_pb :]
            lo = _popcount_grid(and_p[:, None, :] | and_n[None, :, :])
            self.live = lo <= self.max_union
        else:
            and_z = np.bitwise_and.reduceat(aw, starts, axis=0)
            or_z = np.bitwise_or.reduceat(ow, starts, axis=0)
            min_z = np.minimum.reduceat(mpc, starts)
            and_p, and_n = and_z[: self.n_pb], and_z[self.n_pb :]
            or_p, or_n = or_z[: self.n_pb], or_z[self.n_pb :]
            min_p, min_n = min_z[: self.n_pb], min_z[self.n_pb :]
            # Lower bounds on every eligible pair's union popcount.
            lo = _popcount_grid(and_p[:, None, :] | and_n[None, :, :])
            inter = _popcount_grid(or_p[:, None, :] & or_n[None, :, :])
            np.maximum(lo, min_p[:, None] + min_n[None, :] - inter, out=lo)
            self.live = lo <= self.max_union
        # The full-pass ("known") grid is rarely consulted — measured
        # known-tile rates on pruning-relevant calls are ~1% — so it is
        # built lazily from the OR zones on first use (legacy pair_masks);
        # the tiled consumption path never pays for it.
        self._or_pn = (or_p, or_n)
        self.known = None
        self.n_tiles_pruned = int(self.n_tiles - np.count_nonzero(self.live))
        # With every mode eligible the per-pair eligibility masks are
        # provably all-True and the enumeration can skip them.
        self._all_elig = all_elig
        self.zone_nbytes = int(
            and_z.nbytes + or_z.nbytes + min_z.nbytes
            + 2 * self.live.nbytes  # live + the lazily built known grid
        )

    # -- legacy-order consumption (strided / block / full ranges) ----------

    def known_grid(self) -> np.ndarray:
        """The full-pass grid, built on first use: the tile's worst-case
        union (``OR_P | OR_N``) still passes ⇒ every pair in it passes and
        the per-pair prefilter can be skipped for it."""
        if self.known is None:
            or_p, or_n = self._or_pn
            hi = _popcount_grid(or_p[:, None, :] | or_n[None, :, :])
            self.known = self.live & (hi <= self.max_union)
        return self.known

    def pair_masks(self, a: np.ndarray, b: np.ndarray):
        """Per-pair ``(keep, known)`` masks for pairs given as pos/neg
        *list positions* in legacy enumeration order.

        ``keep`` is False exactly for pairs the prefilter would reject
        anyway (pruned tile or ineligible parent); ``known`` is True for
        pairs the full-pass bound already proves accepted.  Both are
        aligned with the input (compress ``known`` by ``keep``).
        """
        if self.pblk_of is None:
            inv_p = np.empty(self.n_pos, dtype=np.intp)
            inv_p[self.porder] = np.arange(self.n_pos, dtype=np.intp)
            inv_n = np.empty(self.n_neg, dtype=np.intp)
            inv_n[self.norder] = np.arange(self.n_neg, dtype=np.intp)
            self.pblk_of = inv_p // self.block
            self.nblk_of = inv_n // self.block
        pb = self.pblk_of[a]
        nb = self.nblk_of[b]
        keep = self.live[pb, nb]
        keep &= self.elig_pos[a]
        keep &= self.elig_neg[b]
        return keep, self.known_grid()[pb, nb]

    @property
    def worth_masking(self) -> bool:
        """Whether per-pair masks can change anything: some tile pruned,
        some mode ineligible, or some tile provably all-pass."""
        if self.live is None:
            return False
        return bool(
            self.n_tiles_pruned
            or not self._all_elig
            or self.known_grid().any()
        )

    # -- tile-major consumption (the "tiled" strategy) ---------------------

    def tile_share(self, rank: int, size: int) -> np.ndarray:
        """Contiguous, pair-count-balanced tile ids owned by ``rank``.

        Tile ``t`` goes to ``floor(pairs_before_t * size / n_pairs)`` —
        deterministic, covering, and independent of pruning (tile pair
        counts include pairs a prune would skip), so the partition is
        identical with pruning on or off.
        """
        if size <= 1:
            return np.arange(self.n_tiles, dtype=np.intp)
        owner = (self.offs[:-1] * size) // max(1, self.n_pairs)
        return np.flatnonzero(owner == rank)

    def share_pair_count(self, tiles: np.ndarray) -> int:
        """Pairs in a tile share, *including* pairs pruning will skip (the
        paper's "generated candidate modes" counts the full pair space)."""
        if tiles.size == 0:
            return 0
        t0 = int(tiles[0])
        t1 = int(tiles[-1]) + 1
        if t1 - t0 == tiles.size:  # contiguous run (tile_share always is)
            return int(self.offs[t1] - self.offs[t0])
        return int(self.tile_pairs.ravel()[tiles].sum())

    def iter_share_chunks(self, tiles: np.ndarray, chunk: int):
        """Yield ``(a, b, known, n_skipped)`` pair chunks for a tile share
        in tile-major order (``a``/``b`` are pos/neg list positions).

        The share's pair list is a slice of the cached expansion template
        (:func:`_expand_template`) gathered through ``porder``/``norder``.
        With zone maps, dead tiles' pairs are compressed out of the
        *sorted-list* template — one boolean gather through the per-pair
        tile-id template, before the ``porder``/``norder`` gathers and the
        prefilter ever see them — and pairs with an ineligible parent are
        dropped in the same pass (both counted in ``n_skipped``).
        ``known`` is ``None`` on this path — *except* at block 1, where
        the intersection bound is the exact prefilter: a pair survives the
        live grid iff it passes, so surviving chunks carry the ``True``
        sentinel and the per-pair prefilter is skipped downstream.  (At
        wider blocks the full-pass grid is worth consulting per pair —
        legacy :meth:`pair_masks` — but measured all-known share rates are
        too low to pay for share-level checks.)  Dead-tile positions are
        ascending, so the emitted order of any surviving pair is the same
        with pruning on or off.
        """
        if tiles.size == 0:
            return
        t0 = int(tiles[0])
        t1 = int(tiles[-1]) + 1
        if t1 - t0 != tiles.size:  # pragma: no cover - tile_share invariant
            raise ValueError("tile share must be a contiguous run")
        tile_of, srow, scol = _expand_template(
            self.n_pos, self.n_neg, self.block
        )
        lo = int(self.offs[t0])
        hi = int(self.offs[t1])
        live_t = None if self.live is None else self.live.ravel()[t0:t1]
        # Exactness sentinel: at block 1 ``live`` *is* the prefilter, so
        # every emitted pair is proven to pass (ineligible modes were
        # AND-neutralized into dead tiles).
        known = True if (self.live is not None and self.block == 1) else None
        if live_t is None or (live_t.all() and self._all_elig):
            # No zone maps (pruning off / below the size gate) or nothing
            # to drop: straight template slices, nothing skipped.
            for s in range(lo, hi, chunk):
                e = min(s + chunk, hi)
                yield self.porder[srow[s:e]], self.norder[scol[s:e]], known, 0
            return

        # Dead tiles or ineligible parents: one mask over the share's
        # template slice selects the surviving pairs, so dead pairs never
        # reach the porder/norder gathers or the prefilter at all.
        keep = self.live.ravel()[tile_of[lo:hi]]
        srow_l = srow[lo:hi][keep]
        scol_l = scol[lo:hi][keep]
        a_all = self.porder[srow_l]
        b_all = self.norder[scol_l]
        total = int(srow_l.size)
        n_skipped = (hi - lo) - total
        if not self._all_elig and total and self.block != 1:
            ekeep = self.elig_pos[a_all] & self.elig_neg[b_all]
            n_keep = int(np.count_nonzero(ekeep))
            if n_keep != total:
                a_all = a_all[ekeep]
                b_all = b_all[ekeep]
                n_skipped += total - n_keep
                total = n_keep
        if total == 0:
            yield (
                np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                known, n_skipped,
            )
            return
        for s in range(0, total, chunk):
            e = min(s + chunk, total)
            yield a_all[s:e], b_all[s:e], known, n_skipped if s == 0 else 0

    def zone_map_nbytes(self) -> int:
        """Bytes held by zone maps + tile geometry (memory accounting).

        Geometry arrays are shared through the shape caches, but each
        subproblem's working set still references them — charging them to
        every space keeps the per-subproblem surrogate conservative."""
        geom = (
            self.porder.nbytes + self.norder.nbytes
            + self.tile_pairs.nbytes + self.offs.nbytes
            + self.pstart.nbytes + self.nstart.nbytes
            + self.psz.nbytes + self.nsz.nbytes
        )
        elig = 0
        if self.live is not None:
            elig = self.elig_pos.nbytes + self.elig_neg.nbytes
        return int(geom + elig + self.zone_nbytes)
