"""The SVD stack behind the rank kernel, and the support-pattern rank memo.

The rank test's engine is the residue-field kernel of
:mod:`repro.linalg.modular`; this module is its fallback for
exact-arithmetic runs, for stoichiometries that are not safely rational
and for candidates two primes disagree on.  Instead of one small SVD per
candidate issued from a Python ``for`` loop, it runs a data-parallel
kernel:

* **Support-size bucketing** — the deduplicated candidates of an iteration
  are grouped by support size ``s``; all submatrices ``N[:, S]`` of one
  bucket share the shape ``(m, s)`` and can be gathered into a single
  contiguous ``(n_bucket, m_eff, s)`` 3-D array with one fancy-index
  operation.
* **Row compaction** — rows of a submatrix that are all-zero contribute
  nothing to its singular values, so each candidate's non-zero rows are
  compacted to the top and the bucket is truncated to the largest
  effective row count, shrinking the LAPACK problem.
* **gufunc-batched SVD** — ``numpy.linalg.svd`` on the 3-D stack issues
  all decompositions from one C-level loop (one LAPACK ``gesdd`` call per
  matrix, zero Python dispatch per candidate).
* **A support-pattern rank memo** (:class:`RankCache`) — rank is a pure
  function of the selected column *set* (and the fixed stoichiometry), so
  results are cached across iterations; with a canonical column mapping
  the same cache is shared across the ``2^q_sub`` divide-and-conquer
  subproblems, whose deleted-column stoichiometries agree with the parent
  on every surviving column.

The cutoff convention matches :func:`repro.linalg.numeric.numeric_rank`
exactly (``rank_tol * sigma_max * max(m, s)`` with the *uncompacted*
shape), so the stack agrees decision-for-decision with one
``numeric_rank`` call per candidate.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.config import NumericPolicy
from repro.errors import LinAlgError
from repro.linalg import rational
from repro.linalg.bitset import pack_support_rows

#: Cache entries beyond this count are silently not inserted (lookup keeps
#: working) — a simple, deterministic bound on memo growth for huge runs.
DEFAULT_CACHE_CAPACITY = 1_000_000


class RankCache:
    """Support-pattern → rank memo shared across iterations and problems.

    Keys are ``token + column-set`` bytes produced by
    :meth:`CacheBinding.keys`; values are ``(rank, tag)`` pairs, the tag
    naming the arm that certified the rank (``"modular"``, or the SVD
    fallback's ``"batched"`` / ``"exact"``).  Rank is a pure function of
    the column selection, so every arm may consume any entry; the tag
    exists for diagnostics and tests.  The cache is a plain dict: lookups and
    inserts are GIL-atomic, so concurrent thread-backend ranks can share
    one instance (a lost insert merely costs a recompute).
    """

    __slots__ = ("_table", "capacity", "hits", "misses")

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self._table: dict = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, key) -> int | None:
        entry = self._table.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[0]

    def store(self, key, rank: int, tag: str = "batched") -> None:
        if len(self._table) < self.capacity:
            self._table[key] = (rank, tag)


class CacheBinding:
    """A :class:`RankCache` bound to one prepared problem.

    ``token`` identifies the matrix family (stoichiometry content, policy,
    arithmetic); ``col_ids`` optionally maps local permuted column
    positions to canonical column identities.  Without ``col_ids`` the key
    is the candidate's packed support words (fast path — bytes of the
    uint64 row); with it, the key is the sorted *multiset* of canonical
    ids, so divide-and-conquer subproblems with different permutations,
    deleted columns, and split (sign-flipped / duplicated) columns hash
    the same mathematical column selection to the same entry.  A multiset
    is as sound as a set — duplicated and sign-flipped copies never change
    the column span, hence never the rank — and sorting batches across the
    whole bucket where per-row ``np.unique`` cannot.
    """

    __slots__ = ("cache", "token", "col_ids", "col_perm", "col_ids_sorted")

    def __init__(
        self,
        cache: RankCache,
        token: bytes,
        col_ids: np.ndarray | None = None,
    ) -> None:
        self.cache = cache
        self.token = token
        self.col_ids = None if col_ids is None else np.asarray(col_ids, dtype=np.int64)
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


def problem_token(
    n_perm: np.ndarray, policy: NumericPolicy, exact: bool
) -> bytes:
    """Stable identity of a rank-test problem: matrix bytes + tolerances +
    arithmetic.  Two problems with equal tokens give equal ranks for equal
    (canonical) column selections."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(n_perm, dtype=np.float64).tobytes())
    h.update(repr((n_perm.shape, policy.rank_tol, bool(exact))).encode())
    return h.digest()


def _size_buckets(mask_t: np.ndarray, sizes: np.ndarray):
    """Yield ``(b_idx, cols)`` per support-size bucket: candidates grouped
    by support size, so equal-``s`` column-index matrices gather
    contiguously."""
    n = int(sizes.size)
    order = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[order]
    # Bucket boundaries: runs of equal support size in the sorted order.
    boundaries = np.nonzero(np.diff(sorted_sizes))[0] + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [n]])
    for b0, b1 in zip(starts, stops):
        b_idx = order[b0:b1]
        s = int(sorted_sizes[b0])
        # np.nonzero walks the (n_bucket, q) block row-major, so indices
        # come out grouped per candidate, ascending — ready to reshape.
        yield b_idx, np.nonzero(mask_t[b_idx])[1].reshape(b_idx.size, s)


def split_cache_hits(
    cache: CacheBinding, keys: list, b_idx: np.ndarray, ranks: np.ndarray, stats=None
) -> list[int]:
    """Fill the cache-hit ranks of ``b_idx`` in place; return the miss
    positions within ``keys``.

    Inlined bulk lookup: one dict ``.get`` per key, counters updated once
    per bucket (``RankCache.lookup`` would cost a Python call and two
    counter increments per candidate).
    """
    table = cache.cache._table
    found = [table.get(key) for key in keys]
    miss_pos = [j for j, v in enumerate(found) if v is None]
    n_hits = b_idx.size - len(miss_pos)
    cache.cache.hits += n_hits
    cache.cache.misses += len(miss_pos)
    if stats is not None:
        stats.n_rank_cache_hits += n_hits
    if n_hits:
        ranks[b_idx] = [0 if v is None else v[0] for v in found]
    return miss_pos


def batched_ranks(
    n_perm: np.ndarray, cols: np.ndarray, policy: NumericPolicy
) -> np.ndarray:
    """Numeric ranks of the submatrices ``n_perm[:, cols[i]]`` for a bucket.

    ``cols`` is an integer ``(n_bucket, s)`` matrix; all submatrices share
    the shape ``(m, s)``.  Returns int64 ranks of length ``n_bucket``,
    using the same cutoff convention as
    :func:`repro.linalg.numeric.numeric_rank` on the full ``(m, s)`` shape.
    """
    if cols.ndim != 2:
        raise LinAlgError("batched_ranks expects a 2-D column-index matrix")
    n_bucket, s = cols.shape
    m = n_perm.shape[0]
    if n_bucket == 0:
        return np.zeros(0, dtype=np.int64)
    if m == 0 or s == 0:
        return np.zeros(n_bucket, dtype=np.int64)

    # One gather for the whole bucket: (m, n_bucket, s) -> (n_bucket, m, s).
    sub = np.ascontiguousarray(np.moveaxis(n_perm[:, cols], 1, 0))

    # Row compaction: all-zero rows of a submatrix leave its singular
    # values unchanged; pushing each candidate's non-zero rows to the top
    # lets the bucket truncate to the largest effective row count.
    nonzero_rows = (sub != 0.0).any(axis=2)  # (n_bucket, m)
    m_eff = max(1, int(nonzero_rows.sum(axis=1).max()))
    if m_eff < m:
        order = np.argsort(~nonzero_rows, axis=1, kind="stable")
        sub = np.take_along_axis(sub, order[:, :m_eff, None], axis=1)

    sv = np.linalg.svd(sub, compute_uv=False)  # (n_bucket, min(m_eff, s))
    cutoff = policy.rank_tol * sv[:, 0] * max(m, s)
    np.maximum(cutoff, 1e-300, out=cutoff)
    return (sv > cutoff[:, None]).sum(axis=1, dtype=np.int64)


def bucketed_ranks(
    n_perm: np.ndarray,
    support_mask: np.ndarray,
    sizes: np.ndarray,
    *,
    policy: NumericPolicy,
    n_exact: rational.FractionMatrix | None = None,
    words: np.ndarray | None = None,
    cache: CacheBinding | None = None,
    stats=None,
) -> np.ndarray:
    """Ranks of ``n_perm[:, S_i]`` for candidates given by support columns.

    Parameters
    ----------
    support_mask:
        Boolean ``(q, n)`` mask — column ``i`` is candidate ``i``'s
        support.  Callers pass only candidates that survived summary
        rejection, so no full-batch unpack is ever materialized upstream.
    sizes:
        Per-candidate support sizes (``support_mask`` column popcounts).
    n_exact:
        Exact-arithmetic stoichiometry; when given, ranks come from
        per-candidate rational elimination (bucketing still drives the
        cache, but no LAPACK batching applies).
    words:
        Packed support rows ``(n, n_words)`` aligned with the mask columns
        (the packed-key memo path packs them when omitted).
    cache:
        Optional bound rank memo; hits skip the decomposition entirely.
        Its keys are computed once per call and sliced per bucket.
    stats:
        Optional counter sink with ``n_rank_cache_hits``,
        ``n_rank_batches`` and ``rank_batch_max`` attributes
        (:class:`repro.core.stats.IterationStats` satisfies this).
    """
    n = int(sizes.size)
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ranks
    mask_t = np.ascontiguousarray(support_mask.T)  # (n, q)
    call_keys = None if cache is None else cache.keys(mask_t, sizes, words)
    tag = "exact" if n_exact is not None else "batched"
    for b_idx, cols in _size_buckets(mask_t, sizes):
        if call_keys is None:
            ranks[b_idx] = _compute_bucket(n_perm, cols, policy, n_exact, stats)
            continue
        keys = [call_keys[i] for i in b_idx.tolist()]
        miss_pos = split_cache_hits(cache, keys, b_idx, ranks, stats)
        if not miss_pos:
            continue
        miss = np.asarray(miss_pos, dtype=np.intp)
        miss_ranks = _compute_bucket(n_perm, cols[miss], policy, n_exact, stats)
        store = cache.cache.store
        for j, r in zip(miss_pos, miss_ranks.tolist()):
            store(keys[j], r, tag)
        ranks[b_idx[miss]] = miss_ranks
    return ranks


def _compute_bucket(
    n_perm: np.ndarray,
    cols: np.ndarray,
    policy: NumericPolicy,
    n_exact: rational.FractionMatrix | None,
    stats,
) -> np.ndarray:
    if stats is not None:
        stats.n_rank_batches += 1
        stats.rank_batch_max = max(stats.rank_batch_max, int(cols.shape[0]))
    if n_exact is not None:
        return np.array(
            [
                rational.exact_rank(rational.select_columns(n_exact, row.tolist()))
                for row in cols
            ],
            dtype=np.int64,
        )
    return batched_ranks(n_perm, cols, policy)
