"""Modular residue-field rank engine with unit-row reduction.

The rank test asks, per candidate support ``S``, whether
``nullity(N[:, S]) == 1``.  An SVD answers with floating-point machinery
for matrices whose entries are small integers.  This engine, the rank
test's only one, answers with exact integer arithmetic instead, built on
three ideas:

**Complement form.**  Let ``B`` be an exact integer basis of the rational
nullspace of the whole ``(m, q)`` stoichiometry (``d = q - rank(N)``
columns).  Solutions supported on ``S`` are exactly ``{B z : (B z)[S̄] = 0}``
for the complement ``S̄ = {0..q-1} \\ S``, so

    ``nullity(N[:, S]) = d - rank(B[S̄, :])``.

Candidate supports are large (``|S| ≈ rank + 1``), so their complements are
tiny (``|S̄| ≈ d - 1``): each elimination shrinks from ``(m, s)`` to roughly
``(d, d-1)`` — an order of magnitude fewer matrix elements, and ``B``'s
gcd-reduced entries are far smaller than the minors a direct elimination of
``N[:, S]`` would produce.

**Exact fraction-free elimination in float64.**  Ranks of the complement
stacks come from batched Bareiss (Montante) elimination: the update
``(pv * rest - col * gp) / prev`` has an exactly integer quotient at every
step, and float64 division whose true quotient is an integer is exact, so
as long as every intermediate magnitude stays below ``2^53 / (2 * amax)``
the computed ranks are *certified*, not approximate.  A per-step magnitude
guard enforces the envelope; stacks that would breach it fall back to the
residue arm below.  Deficient steps keep ``pv := prev`` so the no-op update
``(prev * rest - 0) / prev == rest`` stays exact.

**Residue (mod-p) escalation.**  Guard-tripping stacks re-run over one or
two word-sized prime fields (primes chosen deterministically from the
problem digest; ``64 * p^2 < 2^63`` keeps int64 fraction-free updates
overflow-free).  Reduction mod ``p`` can only *lower* a rank, so the
mod-``p`` nullity estimate ``d - rank_p(B[S̄])`` upper-bounds the rational
nullity: an estimate of 1 is a *certificate* that the candidate passes (the true
nullity is sandwiched: ``1 <= nullity <= 1``).  Estimates ``>= 2`` are
re-checked under a second prime and the minimum is kept; candidates where
the two primes still disagree on the value are settled by exact
elimination of their column selection on Python integers.
No modular inverses are ever materialized for rank elimination (row scaling
by the pivot preserves rank over a field); the only inverses are the lazy
per-pivot ``pow(pv, -1, p)`` in the mod-``p`` RREF that rebuilds a kernel
basis when the exact int64 basis construction overflows.

**Unit-row reduction.**  :func:`int_kernel` parametrizes ``B`` by the
free reactions, so every free-reaction row is a scaled unit vector
(``B[free_k, :] = c_k e_k``).  Let ``U`` be the complement members whose
basis row has exactly one nonzero, ``K = coord(U)`` the coordinates they
hit and ``R = S̄ \\ U`` the remaining members.  The rows of ``B[U]`` span
``{e_k : k ∈ K}``, so eliminating them from ``B[R]`` clears exactly the
``K`` columns and

    ``rank(B[S̄, :]) = |K| + rank(B[R, ~K])``

over Q.  Only the reduced matrix is eliminated (along its shorter axis,
zero-padded to a common shape); complements that are all unit members, or
whose unit members hit every coordinate, need no elimination at all.  The
reduced entries are a subset of ``B``'s, so the float64 guard certifies
the result exactly as for the full stack.  ``n_rank_unit_members`` counts
the members settled this way.

**One reading of the stoichiometry.**  :func:`integer_columns` turns the
float stoichiometry into integers for both this engine and the initial
kernel (:func:`repro.linalg.numeric.kernel_identity_form`): every entry is
read as a rational and each column scaled by its denominators' lcm —
column scaling changes no column-subset rank.  Columns past the int64
envelope come back as Python integers; the engine then reduces them mod
``p`` exactly and eliminates them without a bound.  No rank decision uses
a floating-point tolerance.
Certified ranks go into the support-pattern memo of
:mod:`repro.linalg.rankmemo`.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.errors import LinAlgError
from repro.linalg import bitset, rational
from repro.linalg.rankmemo import CacheBinding, problem_token, split_cache_hits

#: Magnitude ceiling for the exact float64 Bareiss arm: one update step
#: computes ``pv * x - c * g`` with all four factors below this bound, so
#: intermediates stay below ``2 * GUARD^2 < 2^53`` and every float64
#: operation (including the exact-integer division) is exact.
BAREISS_GUARD = 6.7e7

#: Magnitude ceiling for the int64 Montante kernel-basis construction.
INT_KERNEL_GUARD = 1 << 31

#: Word-sized primes (just below 2^23) for the residue arm: with entries
#: in ``[0, p)``, one fraction-free int64 update stays below ``2 p^2 < 2^47``.
PRIMES = (
    8388593, 8388587, 8388581, 8388571, 8388547, 8388539, 8388473, 8388461,
    8388451, 8388449, 8388439, 8388427, 8388421, 8388409, 8388377, 8388371,
)

#: float64 holds every integer below this magnitude exactly; the exact
#: arm's panel is built only from bases inside it.
FLOAT_EXACT = 2**53

#: Prepared problems are memoized by content digest; the registry is
#: cleared wholesale past this size (divide-and-conquer runs touch a few
#: dozen distinct stoichiometries, never thousands).
MAX_PROBLEMS = 128


# ---------------------------------------------------------------------------
# Problem preparation: integerize once, build the exact kernel basis once.
# ---------------------------------------------------------------------------


def integer_columns(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Exact integer column rescale ``(a_int, scales)`` of a float matrix:
    ``a_int[:, j] == a[:, j] * scales[j]`` over the rationals.

    Integral columns pass through ``np.rint`` with scale 1.  Columns with a
    non-integral entry read every entry with
    :func:`repro.linalg.rational.float_to_fraction` and scale by the lcm of
    the denominators.  The result is int64 when it fits the Montante guard,
    else Python ints (``object`` dtype).
    """
    r = np.rint(a)
    scales = [1] * a.shape[1]
    frac_cols = np.flatnonzero((a != r).any(axis=0))
    if not frac_cols.size and (not r.size or np.abs(r).max() < INT_KERNEL_GUARD):
        return r.astype(np.int64), scales
    out = np.array([[int(x) for x in row] for row in r.tolist()], dtype=object)
    out = out.reshape(a.shape)
    for j in frac_cols.tolist():
        col = [rational.float_to_fraction(x) for x in a[:, j].tolist()]
        scales[j] = math.lcm(*(f.denominator for f in col))
        out[:, j] = np.array([int(f * scales[j]) for f in col], dtype=object)
    if np.abs(out).max() < INT_KERNEL_GUARD:
        out = out.astype(np.int64)
    return out, scales


def montante(a: np.ndarray) -> tuple[list[int], np.ndarray, int]:
    """Fraction-free Gauss-Jordan (Montante) elimination of an integer
    matrix, columns scanned left to right.

    Returns ``(pivots, A, delta)``: the pivot columns (the leftmost
    independent columns), the eliminated matrix and the last pivot.  In
    ``A`` every pivot column is ``delta`` on its own row and zero on every
    other row, so row ``i < len(pivots)`` is ``delta`` times the reduced
    row echelon row of pivot ``i``.

    int64 input raises ``OverflowError`` when entries or intermediates
    threaten the int64 envelope; ``object``-dtype (Python int) input runs
    the same elimination without a bound.
    """
    m, q = a.shape
    bounded = a.dtype != object
    A = a.astype(np.int64 if bounded else object)
    if bounded and A.size and max(A.max(), -A.min()) >= INT_KERNEL_GUARD:
        raise OverflowError("Montante input exceeds int64 envelope")
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for j in range(q):
        if r == m:
            break
        col = A[r:, j]
        if not col.any():
            continue
        pr = r + int(col.nonzero()[0][0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        pv = A[r, j]
        f = A[:, j].copy()
        f[r] = 0
        row = A[r].copy()
        # Montante step: update every row except the pivot row, which is
        # left untouched at its own step (the fraction-free Gauss-Jordan
        # invariant; scaling it here would corrupt later exact divisions).
        A *= pv
        A -= f[:, None] * row
        if prev != 1:
            A //= prev
        A[r] = row
        if bounded and max(A.max(), -A.min()) >= INT_KERNEL_GUARD:
            raise OverflowError("Montante elimination exceeds int64 envelope")
        prev = pv
        piv_cols.append(j)
        r += 1
    return piv_cols, A, prev


def int_kernel(n_int: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Exact integer nullspace basis via Montante (fraction-free
    Gauss-Jordan) elimination (:func:`montante`).

    Returns ``(pivots, B)``: the pivot columns (the leftmost independent
    columns, so ``len(pivots)`` is the rank) and a ``(q, d)`` basis of the
    rational nullspace parametrized by the free columns — column ``k`` is
    zero on every free column except the ``k``-th — each column divided by
    its gcd (essential: the delta-scaled construction leaves common factors
    that would amplify Bareiss minors exponentially downstream).

    int64 input raises ``OverflowError`` when entries or intermediates
    threaten the int64 envelope; ``object``-dtype (Python int) input runs
    the same elimination without a bound.
    """
    q = n_int.shape[1]
    piv_cols, A, delta = montante(n_int)
    # Every pivot entry now equals the final pivot ``delta`` and each pivot
    # column is zero off its own row, so the kernel reads straight off the
    # eliminated rows: x[free] = delta, x[pivot_i] = -A[i, free].
    is_free = np.ones(q, dtype=bool)
    is_free[piv_cols] = False
    free = np.flatnonzero(is_free)
    B = np.zeros((q, free.size), dtype=A.dtype)
    B[free, np.arange(free.size)] = delta
    B[piv_cols, :] = -A[: len(piv_cols)][:, free]
    return piv_cols, gcd_reduce_columns(B)


def gcd_reduce_columns(B: np.ndarray) -> np.ndarray:
    """Divide each column of an integer matrix by the gcd of its entries,
    in place (all-zero columns are left alone)."""
    if B.size:
        g = np.gcd.reduce(B, axis=0)
        g[g == 0] = 1
        B //= g
    return B


def verify_kernel(n_int: np.ndarray, B: np.ndarray) -> bool:
    """Exact check ``n_int @ B == 0`` — float64 when the product envelope
    allows, arbitrary-precision objects otherwise."""
    if B.size == 0:
        return True
    if n_int.dtype != object and B.dtype != object:
        bound = float(np.abs(n_int).max() or 1) * float(np.abs(B).max() or 1)
        if bound * n_int.shape[1] < 2.0**53:
            return not np.any(n_int.astype(np.float64) @ B.astype(np.float64))
    prod = n_int.astype(object) @ B.astype(object)
    return not np.any(prod != 0)


class ModularProblem:
    """Per-stoichiometry prepared state of the modular engine.

    ``n_int`` is the stoichiometry as read by :func:`integer_columns`
    (int64, or Python ints past the int64 envelope; ``scales`` are its
    column scales) and ``b_int`` the transposed gcd-reduced exact kernel
    basis ``(d, q)`` of the same dtype — the source every residue panel is
    reduced from.  ``bt`` is
    that basis as float64, built only when every entry is an exact float64
    integer; ``bt_sym`` holds it and its transpose in one zero-bordered
    table (:func:`symmetric_panel`), the gather target of the exact arm's
    padded index matrices.
    ``unit`` marks the reactions whose basis row has exactly one nonzero
    and ``coord`` names that nonzero's column (the unit-row reduction's
    inputs).  When the int64 basis construction overflows, per-prime bases
    are rebuilt lazily by mod-``p`` RREF (:meth:`residue_basis`).
    """

    __slots__ = (
        "q", "m", "rank", "d", "n_int", "scales", "b_int", "bt", "bt_sym",
        "unit", "coord", "primes", "_residues",
    )

    def __init__(self, n_perm: np.ndarray) -> None:
        self.m, self.q = n_perm.shape
        self.b_int: np.ndarray | None = None
        self.bt: np.ndarray | None = None
        self.bt_sym: np.ndarray | None = None
        self.unit: np.ndarray | None = None
        self.coord: np.ndarray | None = None
        self._residues: dict[int, np.ndarray] = {}
        digest = problem_token(n_perm)
        start = int.from_bytes(digest[:4], "big") % len(PRIMES)
        self.primes = tuple(
            PRIMES[(start + k) % len(PRIMES)] for k in range(len(PRIMES))
        )
        self.n_int, self.scales = integer_columns(
            np.asarray(n_perm, dtype=np.float64)
        )
        try:
            pivots, B = int_kernel(self.n_int)
        except OverflowError:
            # Exact basis out of int64 reach; the residue arm rebuilds
            # per-prime bases on demand.  Rank/d are pinned by two primes.
            self._pin_rank_mod_p()
            return
        if not verify_kernel(self.n_int, B):
            raise LinAlgError(
                f"exact kernel basis of the {self.m}x{self.q} stoichiometry "
                "failed verification"
            )
        self.rank = len(pivots)
        self.d = B.shape[1]
        self.b_int = np.ascontiguousarray(B.T)
        if B.size and np.abs(B).max() >= FLOAT_EXACT:
            return  # the residue arm answers every query
        self.bt = self.b_int.astype(np.float64)
        self.bt_sym = symmetric_panel(self.bt)
        cols, rows = np.nonzero(self.bt)
        self.unit = np.bincount(rows, minlength=self.q) == 1
        self.coord = np.zeros(self.q, dtype=np.int64)
        self.coord[rows] = cols  # the only nonzero, on unit rows

    # -- residue arm state -------------------------------------------------

    def _pin_rank_mod_p(self) -> None:
        """Fix ``rank``/``d`` from the first two agreeing primes (basis-less
        problems only).  A single prime can undercount the rank with
        probability ~``m/p``; two independent agreeing primes make that
        ~``(m/p)^2`` — and accept certificates stay one-sided regardless."""
        seen: set[int] = set()
        for p in self.primes[:6]:
            d_p = self.residue_basis(p).shape[0]
            if d_p in seen:
                self.rank = self.q - d_p
                self.d = d_p
                return
            seen.add(d_p)
        raise LinAlgError(
            f"no two primes agree on the rank of the {self.m}x{self.q} "
            "stoichiometry"
        )

    def residue_basis(self, p: int) -> np.ndarray:
        """The ``(d, q)`` int64 nullspace-basis panel over ``F_p``.

        With the exact basis available this is ``b_int mod p``, reduced on
        the exact integers (a basis of the rational nullspace reduces to a
        spanning set of its image in ``F_p^q``, which is all the one-sided
        certificate needs).  Without it, a mod-``p`` RREF of the
        stoichiometry rebuilds a basis — the one place modular inverses
        appear, one lazy ``pow(pv, -1, p)`` per pivot.
        """
        res = self._residues.get(p)
        if res is None:
            if self.b_int is not None:
                res = np.ascontiguousarray(self.b_int % p, dtype=np.int64)
            else:
                res = _kernel_mod_p(self.n_int, p)
            self._residues[p] = res
        return res


def _kernel_mod_p(n_int: np.ndarray, p: int) -> np.ndarray:
    """Nullspace basis of ``n_int`` over ``F_p`` via RREF with lazy
    per-pivot inverses; returns ``(d_p, q)`` int64 rows.  Entries are
    reduced mod ``p`` on the exact integers before the int64 cast."""
    m, q = n_int.shape
    A = np.asarray(n_int % p, dtype=np.int64)
    piv_cols: list[int] = []
    r = 0
    for j in range(q):
        nz = np.nonzero(A[r:, j])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, j]), -1, p)  # the lazy modular inverse
        A[r] = (A[r] * inv) % p
        f = A[:, j].copy()
        f[r] = 0
        A = (A - np.outer(f, A[r])) % p
        piv_cols.append(j)
        r += 1
        if r == m:
            break
    free = [j for j in range(q) if j not in piv_cols]
    B = np.zeros((len(free), q), dtype=np.int64)
    for jj, fj in enumerate(free):
        B[jj, fj] = 1
        for i, pj in enumerate(piv_cols):
            B[jj, pj] = (-int(A[i, fj])) % p
    return B


#: Content-digest → prepared problem memo (process-wide; bounded).
_REGISTRY: dict[bytes, ModularProblem] = {}
#: ``id(n_perm)`` → (weakref-to-array, problem) fast path in front of the
#: digest registry.  Sound because a hit requires the weak referent to be
#: *the same object* — a recycled id leaves a dead or mismatched weakref
#: and falls through to the content digest.  Saves re-hashing the matrix
#: bytes on every rank-test call of an iteration loop.
_ID_CACHE: dict[int, tuple] = {}


def problem_for(n_perm: np.ndarray) -> ModularProblem:
    """The prepared :class:`ModularProblem` for a stoichiometry, memoized
    by content digest (plus an object-identity fast path) so repeated calls
    — and divide-and-conquer subproblems revisiting one matrix — pay
    preparation once.  ``n_perm`` must not be mutated in place while in
    use, the same contract the cache tokens already rely on."""
    ident = id(n_perm)
    hit = _ID_CACHE.get(ident)
    if hit is not None:
        ref, prob = hit
        if ref() is n_perm:
            return prob
    key = problem_token(n_perm)
    prob = _REGISTRY.get(key)
    if prob is None:
        if len(_REGISTRY) >= MAX_PROBLEMS:
            _REGISTRY.clear()
        prob = ModularProblem(n_perm)
        _REGISTRY[key] = prob
    try:
        if len(_ID_CACHE) >= MAX_PROBLEMS:
            _ID_CACHE.clear()
        _ID_CACHE[ident] = (weakref.ref(n_perm), prob)
    except TypeError:  # non-weakrefable views keep the digest-only path
        pass
    return prob


# ---------------------------------------------------------------------------
# Batched exact fraction-free elimination (the certified float64 arm).
# ---------------------------------------------------------------------------


def bareiss_ranks(stack: np.ndarray) -> np.ndarray:
    """Exact batched integer ranks via fraction-free elimination.

    ``stack`` is ``(n, m, w)`` float64 holding exact integers; elimination
    proceeds over the ``w`` trailing-axis columns, pivoting among the ``m``
    rows.  A stack that is the transposed view of a contiguous ``(w, m,
    n)`` panel is eliminated in place, without a copy.  Raises
    ``OverflowError`` the moment the 2^53 exactness envelope is threatened
    — the caller escalates to the residue arm.
    """
    n, m, w = stack.shape
    r = np.zeros(n, dtype=np.int64)
    if n == 0 or m == 0 or w == 0:
        return r
    ar = np.arange(n)
    panel = np.ascontiguousarray(stack.transpose(2, 1, 0))  # (w, m, n)
    prev = np.ones(n)
    # Magnitude tracking via two allocation-free reductions (max of the
    # data and of its negation) instead of an np.abs temporary per step.
    amax = max(float(panel.max()), -float(panel.min()))
    for t in range(w):
        col = panel[t]  # (m, n)
        piv = (col != 0.0).argmax(axis=0)
        pv_raw = col.reshape(-1)[piv * n + ar]
        has = pv_raw != 0.0
        # Deficient step: pv := prev makes the update an exact no-op
        # ((prev * rest - 0) / prev == rest); never substitute 1 here.
        pv = np.where(has, pv_raw, prev)
        r += has
        if t + 1 < w:
            if amax > BAREISS_GUARD:
                raise OverflowError("Bareiss stack exceeds float64 exactness envelope")
            rest = panel[t + 1 :]
            flat = rest.reshape(w - t - 1, -1)
            gp = flat[:, piv * n + ar].copy()  # pivot-row values ahead
            rest *= pv
            rest -= col[None] * gp[:, None, :]
            rest /= prev  # exact integer quotient (Bareiss identity)
            # Consume the pivot row: zero it in the remaining columns.  On
            # deficient steps the update provably left it unchanged, so
            # writing back the pre-update values is the identity.
            flat[:, piv * n + ar] = np.where(has, 0.0, gp)
            amax = max(float(rest.max()), -float(rest.min()))
        prev = pv
    return r


def _modp_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Batched ranks over ``F_p`` by fraction-free elimination — row
    scaling by the (nonzero) pivot preserves rank over a field, so no
    divisions and no inverses occur."""
    n, m, w = stack.shape
    r = np.zeros(n, dtype=np.int64)
    if n == 0 or m == 0 or w == 0:
        return r
    ar = np.arange(n)
    panel = np.ascontiguousarray(stack.transpose(2, 1, 0)).astype(np.int64) % p
    for t in range(w):
        col = panel[t]
        piv = (col != 0).argmax(axis=0)
        pv_raw = col.reshape(-1)[piv * n + ar]
        has = pv_raw != 0
        r += has
        if t + 1 < w:
            rest = panel[t + 1 :]
            flat = rest.reshape(w - t - 1, -1)
            gp = flat[:, piv * n + ar].copy()
            rest *= np.where(has, pv_raw, 1)
            rest -= col[None] * gp[:, None, :]
            rest %= p
            flat[:, piv * n + ar] = np.where(has, 0, gp)
        # (no prev tracking: row scaling needs no compensation over F_p)
    return r


# ---------------------------------------------------------------------------
# The engine entry point.
# ---------------------------------------------------------------------------


def _padded_complements(
    mask_t: np.ndarray, miss_idx: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Complement member-index matrix for the miss candidates (the residue
    arm's stack), members in descending column order, short rows padded by
    repeating their last (smallest) member — a duplicated column never
    changes the rank.

    Returns ``(idx_pad, comp_counts)``.
    """
    comp = ~mask_t[miss_idx]  # (nm, q)
    nm, q = comp.shape
    counts = q - sizes
    w = int(counts.max()) if nm else 0
    idx_pad = np.zeros((nm, w), dtype=np.int64)
    if w == 0:
        return idx_pad, counts
    ri, ci = np.nonzero(comp)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    pos = np.arange(ci.size) - offsets[ri]  # ascending position within row
    idx_pad[ri, counts[ri] - 1 - pos] = ci  # place descending
    last = idx_pad[np.arange(nm), np.maximum(counts - 1, 0)]
    fill = np.arange(w)[None, :] >= counts[:, None]
    idx_pad[fill] = np.broadcast_to(last[:, None], (nm, w))[fill]
    return idx_pad, counts


def _member_index(mask: np.ndarray, pad: int) -> np.ndarray:
    """Ascending set-member indices of each row of a non-empty boolean
    matrix, short rows padded with ``pad``."""
    counts = mask.sum(axis=1)
    idx = np.full((mask.shape[0], int(counts.max())), pad, dtype=np.int64)
    ri, ci = np.nonzero(mask)
    idx[ri, np.arange(ci.size) - (np.cumsum(counts) - counts)[ri]] = ci
    return idx


def symmetric_panel(bt: np.ndarray) -> np.ndarray:
    """The ``(d, q)`` float basis panel ``bt`` and its transpose in one
    zero-bordered symmetric table of side ``d + 1 + q``: coordinate ``c``
    is index ``c``, reaction ``j`` is index ``d + 1 + j``, and index
    ``d`` is an all-zero row and column (the padding target).  A reduced
    matrix gathered from it may put either its coordinates or its
    reactions on the elimination axis."""
    d, q = bt.shape
    out = np.zeros((d + 1 + q, d + 1 + q))
    out[:d, d + 1 :] = bt
    out[d + 1 :, :d] = bt.T
    return out


def _elimination_blocks(short: np.ndarray, long: np.ndarray) -> list[np.ndarray]:
    """Candidate index blocks whose padded panel and elimination temporary
    (16 bytes per padded entry) stay within
    :data:`~repro.linalg.bitset.TRANSIENT_BYTES`; a candidate alone past
    it makes a block of its own.

    ``short`` and ``long`` are each candidate's reduced shape.  A batch
    within the budget is one block, in its own order.  A larger one is
    sorted by ``(short, long)`` and cut into consecutive blocks, so each
    block is padded to shapes close to its members' own."""
    budget = bitset.TRANSIENT_BYTES // 16
    n = short.size
    if n * int(short.max()) * int(long.max()) <= budget:
        return [np.arange(n)]
    order = np.lexsort((long, short))
    short, long = short[order], long[order]
    blocks = []
    start = 0
    while start < n:
        stop = min(n, start + budget // int(short[start] * long[start]) + 1)
        wide = np.maximum.accumulate(long[start:stop])
        entries = np.arange(1, stop - start + 1) * short[start:stop] * wide
        size = max(1, int(np.searchsorted(entries, budget, side="right")))
        blocks.append(order[start : start + size])
        start += size
    return blocks


def _unit_reduced_ranks(
    prob: ModularProblem, comp: np.ndarray, stats=None
) -> np.ndarray:
    """Exact ranks of ``B[S̄, :]`` for complement masks ``comp`` (``(nm,
    q)`` bool) by the unit-row reduction ``|K| + rank(B[R, ~K])``.

    Each reduced matrix ``B[R, ~K]`` is eliminated along its shorter
    axis: it is gathered from the symmetric table ``bt_sym`` with its
    short index set (members or live coordinates, whichever is fewer) on
    the elimination axis.  The candidates go to :func:`bareiss_ranks` in
    blocks bounded by the transient budget, sorted by that ``(short,
    long)`` shape when there is more than one block, each zero-padded to
    its own largest shape (:func:`_elimination_blocks`).  Raises
    ``OverflowError`` when the exactness guard trips.
    """
    nm = comp.shape[0]
    d = prob.d
    unit_rows, unit_members = np.nonzero(comp & prob.unit)
    hit = np.zeros((nm, d), dtype=bool)
    hit[unit_rows, prob.coord[unit_members]] = True
    ranks = hit.sum(axis=1)
    rest = comp & ~prob.unit
    sel = np.flatnonzero(rest.any(axis=1) & (ranks < d))
    if sel.size:
        # One index space for both axes of ``bt_sym``: live coordinates,
        # the zero pad ``d``, then the non-unit members.
        index = np.zeros((sel.size, prob.bt_sym.shape[0]), dtype=bool)
        index[:, :d] = ~hit[sel]
        index[:, d + 1 :] = rest[sel]
        n_members = index[:, d + 1 :].sum(axis=1)
        n_live = d - ranks[sel]
        on_members = n_members <= n_live
        short = np.minimum(n_members, n_live)
        long = np.maximum(n_members, n_live)
        for cand in _elimination_blocks(short, long):
            short_set = index[cand]
            short_set[on_members[cand], :d] = False
            short_set[~on_members[cand], d + 1 :] = False
            a = _member_index(short_set, d)  # (n, w) elimination axis
            b = _member_index(index[cand] & ~short_set, d)  # (n, m)
            # Gathered in the (w, m, n) layout bareiss_ranks eliminates
            # in, so this transposed view is consumed in place.
            panel = prob.bt_sym[a.T[:, None, :], b.T[None, :, :]]
            ranks[sel[cand]] += bareiss_ranks(panel.transpose(2, 1, 0))
    if stats is not None:
        stats.n_rank_unit_members += unit_members.size
    return ranks


def _residue_nullities(
    prob: ModularProblem, p: int, idx_pad: np.ndarray
) -> np.ndarray:
    """``d - rank_p(B[S̄, :])`` for the padded complement stacks over
    ``F_p``, in blocks whose gathered panel and the copies
    :func:`_modp_ranks` makes of it (about 48 bytes per entry) stay
    within :data:`~repro.linalg.bitset.TRANSIENT_BYTES`."""
    d = prob.d
    b = prob.residue_basis(p)
    n, w = idx_pad.shape
    step = max(1, bitset.TRANSIENT_BYTES // (48 * max(1, d * w)))
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, step):
        sub = b[:, idx_pad[start : start + step]]  # (d, n_b, w): members as columns
        out[start : start + step] = d - _modp_ranks(
            np.ascontiguousarray(sub.transpose(1, 0, 2)), p
        )
    return out


def _kernel_nullities(
    prob: ModularProblem, idx_pad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residue-arm nullity estimates for the padded complement stacks,
    plus a mask of candidates the two primes disagree on.

    Prime 1 takes the whole stack, then prime 2 every nullity-≥2 estimate,
    keeping the minimum (reduction can only inflate nullity, so the minimum
    is the sharper bound and any estimate of 1 is a certificate).
    """
    unresolved = np.zeros(idx_pad.shape[0], dtype=bool)
    p1, p2 = prob.primes[0], prob.primes[1]
    null1 = _residue_nullities(prob, p1, idx_pad)
    need = null1 >= 2
    if need.any():
        null2 = _residue_nullities(prob, p2, idx_pad[need])
        n1 = null1[need]
        resolved = np.minimum(n1, null2)
        # A certificate (either prime saw nullity 1) or two agreeing
        # estimates settle the candidate; a remaining disagreement — both
        # primes ≥ 2 but different — is left to exact elimination.
        disagree = (resolved >= 2) & (n1 != null2)
        null1[need] = resolved
        unresolved[np.flatnonzero(need)[disagree]] = True
    return null1, unresolved


def modular_ranks(
    n_perm: np.ndarray,
    support_mask: np.ndarray,
    sizes: np.ndarray,
    *,
    words: np.ndarray | None = None,
    cache: CacheBinding | None = None,
    stats=None,
) -> np.ndarray:
    """Exact ranks of ``n_perm[:, S_i]`` for the candidates given by the
    ``(q, n)`` boolean ``support_mask`` (column ``i`` is candidate ``i``'s
    support) and its column popcounts ``sizes``.

    One vectorized key pass (:meth:`~repro.linalg.rankmemo.CacheBinding.keys`
    over the packed support rows ``words``) drives the memo lookups, all
    misses of a call go to the kernel as one batch of complements, and the
    computed ranks are stored back.  A binding that carries a canonical
    rank problem (a divide-and-conquer subproblem, see
    :meth:`~repro.engine.context.RunContext.rank_binding_for`) ranks its
    misses on that problem: a subproblem's columns are the canonical
    matrix's columns, some deleted and some duplicated with a flipped
    sign, and rank depends only on the column span — the reason the memo
    can share entries across subproblems.  Candidates the two residue
    primes disagree on are settled by exact elimination on Python integers
    and counted in ``n_rank_fallback``; ``stats`` is an optional
    :class:`~repro.core.stats.IterationStats` counter sink.
    """
    n = int(sizes.size)
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ranks
    canonical = cache is not None and cache.problem is not None
    prob = cache.problem if canonical else problem_for(n_perm)
    mask_t = np.ascontiguousarray(support_mask.T)  # (n, q)
    if cache is not None:
        keys = cache.keys(mask_t, sizes, words)
        miss_pos = split_cache_hits(cache, keys, ranks, stats)
        if not miss_pos:
            return ranks
        miss_idx = np.asarray(miss_pos, dtype=np.int64)
    else:
        miss_idx = np.arange(n, dtype=np.int64)
    mask = mask_t[miss_idx]
    if canonical:
        mask = cache.canonical_columns(mask)
        s_arr = mask.sum(axis=1, dtype=np.int64)
    else:
        s_arr = sizes[miss_idx].astype(np.int64)
    nm = miss_idx.size
    if stats is not None:
        stats.n_rank_batches += 1
        stats.rank_batch_max = max(stats.rank_batch_max, nm)
        stats.n_rank_modular += nm
    nullities = None
    unresolved = np.zeros(nm, dtype=bool)
    if prob.bt is not None:
        try:
            nullities = prob.d - _unit_reduced_ranks(prob, ~mask, stats=stats)
        except OverflowError:  # guard tripped: the residue arm takes over
            pass
    if nullities is None:
        idx_pad, counts = _padded_complements(mask, np.arange(nm), s_arr)
        nullities, unresolved = _kernel_nullities(prob, idx_pad)
        empty = counts == 0  # full-support candidates: rank(B[∅]) = 0
        nullities[empty] = prob.d
        unresolved &= ~empty
    miss_ranks = s_arr - nullities
    if unresolved.any():
        # Prime disagreement: exact elimination of the candidate's own
        # column selection on Python integers settles the stragglers.
        u = np.flatnonzero(unresolved)
        if stats is not None:
            stats.n_rank_fallback += u.size
            stats.n_rank_modular -= u.size
        for k in u.tolist():
            cols = np.flatnonzero(mask[k])
            miss_ranks[k] = len(int_kernel(prob.n_int[:, cols].astype(object))[0])
    ranks[miss_idx] = miss_ranks
    if cache is not None:
        store = cache.cache.store
        for j, rk in zip(miss_pos, miss_ranks.tolist()):
            store(keys[j], rk)
    return ranks
