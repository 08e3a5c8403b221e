"""The support-pattern rank memo of the rank test.

Rank is a pure function of the selected column *set* of a fixed
stoichiometry, so the ranks the engine (:mod:`repro.linalg.modular`)
certifies are cached across iterations; with a canonical column mapping
the same cache is shared across the ``2^q_sub`` divide-and-conquer
subproblems, whose deleted-column stoichiometries agree with the parent
on every surviving column.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import LinAlgError
from repro.linalg.bitset import pack_support_rows

if TYPE_CHECKING:  # pragma: no cover
    from repro.linalg.modular import ModularProblem

#: Cache entries beyond this count are silently not inserted (lookup keeps
#: working) — a simple, deterministic bound on memo growth for huge runs.
DEFAULT_CACHE_CAPACITY = 1_000_000


class RankCache:
    """Support-pattern → rank memo shared across iterations and problems.

    Keys are ``token + column-set`` bytes produced by
    :meth:`CacheBinding.keys`; values are certified ranks.  The cache is a
    plain dict: the sequential backend's ranks share one instance (one
    rank runs at a time), and each process-backend rank or pool worker
    holds a private forked copy (fewer hits, never a wrong rank).
    """

    __slots__ = ("_table", "capacity", "hits", "misses")

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self._table: dict = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def store(self, key, rank: int) -> None:
        if len(self._table) < self.capacity:
            self._table[key] = rank


class CacheBinding:
    """A :class:`RankCache` bound to one prepared problem.

    ``token`` identifies the matrix family (stoichiometry content and
    shape); ``col_ids`` optionally maps local permuted column
    positions to canonical column identities.  Without ``col_ids`` the key
    is the candidate's packed support words (fast path — bytes of the
    uint64 row); with it, the key is the sorted *multiset* of canonical
    ids, so divide-and-conquer subproblems with different permutations,
    deleted columns, and split (sign-flipped / duplicated) columns hash
    the same mathematical column selection to the same entry.  A multiset
    is as sound as a set — duplicated and sign-flipped copies never change
    the column span, hence never the rank — and sorting batches across the
    whole call where per-row ``np.unique`` cannot.
    """

    __slots__ = (
        "cache", "token", "col_ids", "col_perm", "col_ids_sorted", "problem", "_lift",
    )

    def __init__(
        self,
        cache: RankCache,
        token: bytes,
        col_ids: np.ndarray | None = None,
        problem: "ModularProblem | None" = None,
    ) -> None:
        self.cache = cache
        self.token = token
        self.col_ids = None if col_ids is None else np.asarray(col_ids, dtype=np.int64)
        #: the canonical matrix's prepared rank problem
        #: (:class:`~repro.linalg.modular.ModularProblem`), or ``None`` to
        #: rank the local stoichiometry; it needs ``col_ids``.
        self.problem = problem
        self._lift = None
        if problem is not None:
            if self.col_ids is None:
                raise LinAlgError("a canonical rank problem needs col_ids")
            self._lift = np.zeros((self.col_ids.size, problem.q), dtype=bool)
            self._lift[np.arange(self.col_ids.size), self.col_ids] = True
        # Ascending-id column permutation: selecting support columns in
        # this order yields each candidate's canonical ids already sorted,
        # so the key pass needs no per-row sort (stable, so duplicated
        # split-column ids keep their multiset bytes).
        if self.col_ids is None:
            self.col_perm = None
            self.col_ids_sorted = None
        else:
            self.col_perm = np.argsort(self.col_ids, kind="stable")
            self.col_ids_sorted = np.ascontiguousarray(self.col_ids[self.col_perm])

    def keys(
        self,
        mask_t: np.ndarray,
        sizes: np.ndarray,
        words: np.ndarray | None = None,
    ) -> list[bytes]:
        """One memo key per candidate of a call, in one vectorized pass.

        ``mask_t`` is the ``(n, q)`` support mask (one candidate per row),
        ``sizes`` its row popcounts and ``words`` the packed support rows
        (packed from the mask when omitted).  Keys are flat
        ``token + row-bytes`` strings sliced out of one blob: the packed
        words without ``col_ids``; with them, the candidate's canonical
        ids, read off the mask in ascending-id column order so each row
        comes out sorted without a sort, the variable-size multisets
        sliced by the size prefix sums.
        """
        token = self.token
        if self.col_ids is None:
            if words is None:
                words = pack_support_rows(mask_t)
            rows = np.ascontiguousarray(words)
            stride = rows.shape[1] * rows.itemsize
            if stride == 0:  # no columns: all keys identical
                return [token] * rows.shape[0]
            blob = rows.tobytes()
            return [token + blob[i : i + stride] for i in range(0, len(blob), stride)]
        ci = np.nonzero(mask_t[:, self.col_perm])[1]
        blob = np.ascontiguousarray(self.col_ids_sorted[ci]).tobytes()
        ends = np.cumsum(sizes, dtype=np.int64) * 8
        starts = ends - sizes.astype(np.int64) * 8
        return [token + blob[s:e] for s, e in zip(starts.tolist(), ends.tolist())]

    def canonical_columns(self, mask_t: np.ndarray) -> np.ndarray:
        """The ``(n, q_canonical)`` column-set mask of the ``(n, q)``
        local support mask ``mask_t``: duplicated (split) columns fold
        onto one canonical column."""
        return mask_t @ self._lift


def problem_token(n_perm: np.ndarray) -> bytes:
    """Stable identity of a rank-test problem: the matrix bytes and shape.
    Two problems with equal tokens give equal ranks for equal (canonical)
    column selections."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(n_perm, dtype=np.float64).tobytes())
    h.update(repr(n_perm.shape).encode())
    return h.digest()


def split_cache_hits(
    cache: CacheBinding, keys: list, ranks: np.ndarray, stats=None
) -> list[int]:
    """Fill the cache-hit entries of ``ranks`` (one per key) in place;
    return the miss positions.

    One dict ``.get`` per key; the hit/miss counters are updated once per
    call.
    """
    table = cache.cache._table
    found = [table.get(key) for key in keys]
    miss_pos = [j for j, v in enumerate(found) if v is None]
    n_hits = len(keys) - len(miss_pos)
    cache.cache.hits += n_hits
    cache.cache.misses += len(miss_pos)
    if stats is not None:
        stats.n_rank_cache_hits += n_hits
    if n_hits:
        ranks[:] = [0 if v is None else v for v in found]
    return miss_pos
