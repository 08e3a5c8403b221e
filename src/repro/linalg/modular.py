"""Modular residue-field rank engine with elimination-prefix reuse.

The rank test asks, per candidate support ``S``, whether
``nullity(N[:, S]) == 1``.  The batched backend answers with gufunc SVD —
floating-point machinery for matrices whose entries are small integers.
This engine answers with exact integer arithmetic instead, built on three
ideas:

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
nullity: an estimate of 1 is a *certificate* of acceptance (the true
nullity is sandwiched: ``1 <= nullity <= 1``).  Estimates ``>= 2`` are
re-checked under a second prime and the minimum is kept; candidates where
the two primes still disagree on the value escalate to the SVD reference.
No modular inverses are ever materialized for rank elimination (row scaling
by the pivot preserves rank over a field); the only inverses are the lazy
per-pivot ``pow(pv, -1, p)`` in the mod-``p`` RREF that rebuilds a kernel
basis when the exact integer basis itself overflows.

**Elimination-prefix reuse.**  Within one batch the complement member sets
are lexsorted (:func:`repro.linalg.bitset.lexsort_rows` on the complement
words), so consecutive candidates share their leading complement members.
Elimination runs member-by-member on the *transposed* basis panel
(``B.T[:, S̄]``: members are columns, steps eliminate columns), which makes
the partially eliminated state after the shared prefix a snapshot any
candidate of the class can continue from: phase A eliminates each distinct
prefix once at full width ``q``, phase C gathers each candidate's suffix
members from its class snapshot and eliminates only those.  The
``n_prefix_reused_cols`` counter records how many member-columns were
served from snapshots instead of re-eliminated.

Problems whose entries cannot be scaled to safe integers (non-rational
entries, or magnitudes beyond the integer envelope) fall back wholesale to
the SVD engine in :mod:`repro.linalg.batched` (``n_rank_fallback``).  The
support-pattern memo (:class:`repro.linalg.batched.RankCache`) is shared
with the other backends: keys are support patterns, values are certified
ranks tagged with the producing backend.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

import numpy as np

from repro.config import NumericPolicy
from repro.linalg import bitset
from repro.linalg.batched import (
    CacheBinding,
    batched_ranks,
    bucketed_ranks,
    problem_token,
    split_cache_hits,
)

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

#: Denominator bound for the per-column rational rescale; entries that are
#: not within 1e-12 (relative) of a fraction this small are non-rational
#: for our purposes and send the whole problem to the SVD fallback.
MAX_DENOMINATOR = 1000

#: Prepared problems are memoized by content digest; the registry is
#: cleared wholesale past this size (divide-and-conquer runs touch a few
#: dozen distinct stoichiometries, never thousands).
MAX_PROBLEMS = 128

#: Engage the prefix-reuse layer only when its modeled element-work saving
#: is positive and the batch is big enough for class sharing to appear.
MIN_PREFIX_BATCH = 8


# ---------------------------------------------------------------------------
# Problem preparation: integerize once, build the exact kernel basis once.
# ---------------------------------------------------------------------------


def integerize(n_perm: np.ndarray) -> np.ndarray | None:
    """Rescale ``n_perm`` to an exact int64 matrix, or ``None``.

    Integer-valued inputs pass through ``np.rint``.  Otherwise each
    *column* is scaled by the lcm of its entries' denominators — column
    scaling by nonzero constants changes no column-subset rank, so the
    rescaled matrix answers exactly the same rank queries.  Entries that
    are not safely rational (no denominator below :data:`MAX_DENOMINATOR`
    reproduces them to 1e-12 relative) or whose rescale overflows the
    Montante guard disqualify the whole problem.
    """
    a = np.asarray(n_perm, dtype=np.float64)
    if a.size == 0:
        return a.astype(np.int64)
    r = np.rint(a)
    if np.allclose(a, r, rtol=0.0, atol=1e-9) and np.abs(r).max() < INT_KERNEL_GUARD:
        return r.astype(np.int64)
    out = np.zeros(a.shape, dtype=np.int64)
    for j in range(a.shape[1]):
        col = a[:, j]
        fracs = []
        for x in col:
            f = Fraction(float(x)).limit_denominator(MAX_DENOMINATOR)
            if abs(float(f) - x) > 1e-12 * max(1.0, abs(x)):
                return None
            fracs.append(f)
        scale = int(np.lcm.reduce([f.denominator for f in fracs])) if fracs else 1
        scaled = [int(f * scale) for f in fracs]
        if scaled and max(abs(v) for v in scaled) >= INT_KERNEL_GUARD:
            return None
        out[:, j] = scaled
    return out


def int_kernel(n_int: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Exact integer nullspace basis via Montante (fraction-free
    Gauss-Jordan) elimination.

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
    m, q = n_int.shape
    bounded = n_int.dtype != object
    A = n_int.astype(np.int64 if bounded else object)
    if bounded and A.size and np.abs(A).max() >= INT_KERNEL_GUARD:
        raise OverflowError("Montante input exceeds int64 envelope")
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for j in range(q):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, j])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        pv = A[r, j]
        f = A[:, j].copy()
        f[r] = 0
        # Montante step: update every row except the pivot row, which is
        # left untouched at its own step (the fraction-free Gauss-Jordan
        # invariant; scaling it here would corrupt later exact divisions).
        upd = pv * A - np.outer(f, A[r])
        upd //= prev
        upd[r] = A[r]
        A = upd
        if bounded and np.abs(A).max() >= INT_KERNEL_GUARD:
            raise OverflowError("Montante kernel basis exceeds int64 envelope")
        prev = pv
        piv_cols.append(j)
        r += 1
    # Every pivot entry now equals the final pivot ``delta`` and each pivot
    # column is zero off its own row, so the kernel reads straight off the
    # eliminated rows: x[free] = delta, x[pivot_i] = -A[i, free].
    is_free = np.ones(q, dtype=bool)
    is_free[piv_cols] = False
    free = np.flatnonzero(is_free)
    B = np.zeros((q, free.size), dtype=A.dtype)
    B[free, np.arange(free.size)] = prev
    B[piv_cols, :] = -A[:r][:, free]
    return piv_cols, gcd_reduce_columns(B)


def gcd_reduce_columns(B: np.ndarray) -> np.ndarray:
    """Divide each column of an integer matrix by the gcd of its entries,
    in place (all-zero columns are left alone)."""
    if B.size:
        g = np.gcd.reduce(B, axis=0)
        g[g == 0] = 1
        B //= g
    return B


def _verify_kernel(n_int: np.ndarray, B: np.ndarray) -> bool:
    """Exact check ``n_int @ B == 0`` — float64 when the product envelope
    allows, arbitrary-precision objects otherwise."""
    if B.size == 0:
        return True
    bound = float(np.abs(n_int).max() or 1) * float(np.abs(B).max() or 1)
    if bound * n_int.shape[1] < 2.0**53:
        return not np.any(n_int.astype(np.float64) @ B.astype(np.float64))
    prod = n_int.astype(object) @ B.astype(object)
    return not np.any(prod != 0)


class ModularProblem:
    """Per-stoichiometry prepared state of the modular engine.

    ``ok=False`` problems (non-rational entries, unverifiable kernels)
    delegate every call to the SVD fallback.  ``bt`` is the transposed
    gcd-reduced integer kernel basis as float64 ``(d, q)`` — the panel both
    exact and residue arms gather complement columns from.  When the exact
    basis construction itself overflows int64, per-prime bases are rebuilt
    lazily by mod-``p`` RREF (:meth:`residue_basis`).
    """

    __slots__ = (
        "q", "m", "ok", "reason", "rank", "d", "bt", "n_int", "primes",
        "_residues", "_modp_bases",
    )

    def __init__(self, n_perm: np.ndarray, policy: NumericPolicy) -> None:
        self.m, self.q = n_perm.shape
        self.ok = False
        self.reason = ""
        self.rank = -1
        self.d = -1
        self.bt: np.ndarray | None = None
        self.n_int: np.ndarray | None = None
        self._residues: dict[int, np.ndarray] = {}
        self._modp_bases: dict[int, tuple[int, np.ndarray]] = {}
        digest = problem_token(n_perm, policy, False)
        start = int.from_bytes(digest[:4], "big") % len(PRIMES)
        self.primes = tuple(
            PRIMES[(start + k) % len(PRIMES)] for k in range(len(PRIMES))
        )
        n_int = integerize(n_perm)
        if n_int is None:
            self.reason = "non-rational entries"
            return
        self.n_int = n_int
        try:
            pivots, B = int_kernel(n_int)
        except OverflowError:
            # Exact basis out of reach; the residue arm rebuilds per-prime
            # bases on demand.  Rank/d are pinned by the first usable prime.
            if self._pin_rank_mod_p():
                self.ok = True
            else:
                self.reason = "no usable prime"
            return
        if not _verify_kernel(n_int, B):
            self.reason = "kernel verification failed"
            return
        self.rank = len(pivots)
        self.d = B.shape[1]
        self.bt = np.ascontiguousarray(B.T, dtype=np.float64)
        self.ok = True

    # -- residue arm state -------------------------------------------------

    def _pin_rank_mod_p(self) -> bool:
        """Fix ``rank``/``d`` from the first two agreeing primes (basis-less
        problems only).  A single prime can undercount the rank with
        probability ~``m/p``; two independent agreeing primes make that
        ~``(m/p)^2`` — and accept certificates stay one-sided regardless."""
        seen: dict[int, int] = {}
        for p in self.primes[:6]:
            basis = self.residue_basis(p)
            if basis is None:
                continue
            d_p = basis.shape[0]
            if d_p in seen:
                self.rank = self.q - d_p
                self.d = d_p
                return True
            seen[d_p] = p
        return False

    def residue_basis(self, p: int) -> np.ndarray | None:
        """The ``(d, q)`` int64 nullspace-basis panel over ``F_p``.

        With the exact basis available this is just ``bt mod p`` (a basis
        of the rational nullspace reduces to a spanning set of its image in
        ``F_p^q``, which is all the one-sided certificate needs).  Without
        it, a mod-``p`` RREF of the stoichiometry rebuilds a basis — the
        one place modular inverses appear, one lazy ``pow(pv, -1, p)`` per
        pivot.
        """
        if self.bt is not None:
            res = self._residues.get(p)
            if res is None:
                res = np.ascontiguousarray(
                    self.bt.astype(np.int64) % p
                )
                self._residues[p] = res
            return res
        cached = self._modp_bases.get(p)
        if cached is not None:
            return cached[1]
        basis = _kernel_mod_p(self.n_int, p)
        if basis is None:
            return None
        self._modp_bases[p] = (basis.shape[0], basis)
        return basis


def _kernel_mod_p(n_int: np.ndarray, p: int) -> np.ndarray | None:
    """Nullspace basis of ``n_int`` over ``F_p`` via RREF with lazy
    per-pivot inverses; returns ``(d_p, q)`` int64 rows, or ``None`` for
    degenerate inputs."""
    m, q = n_int.shape
    A = (n_int.astype(np.int64) % p).copy()
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


def problem_for(n_perm: np.ndarray, policy: NumericPolicy) -> ModularProblem:
    """The prepared :class:`ModularProblem` for a stoichiometry, memoized
    by content digest (plus an object-identity fast path) so repeated calls
    — and divide-and-conquer subproblems revisiting one matrix — pay
    preparation once.  ``n_perm`` must not be mutated in place while in
    use, the same contract the cache tokens already rely on."""
    ident = id(n_perm)
    hit = _ID_CACHE.get(ident)
    if hit is not None:
        ref, pol, prob = hit
        if ref() is n_perm and pol is policy:
            return prob
    key = problem_token(n_perm, policy, False)
    prob = _REGISTRY.get(key)
    if prob is None:
        if len(_REGISTRY) >= MAX_PROBLEMS:
            _REGISTRY.clear()
        prob = ModularProblem(n_perm, policy)
        _REGISTRY[key] = prob
    try:
        if len(_ID_CACHE) >= MAX_PROBLEMS:
            _ID_CACHE.clear()
        _ID_CACHE[ident] = (weakref.ref(n_perm), policy, prob)
    except TypeError:  # non-weakrefable views keep the digest-only path
        pass
    return prob


# ---------------------------------------------------------------------------
# Batched exact fraction-free elimination (the certified float64 arm).
# ---------------------------------------------------------------------------


def bareiss_ranks(
    stack: np.ndarray,
    prev0: np.ndarray | None = None,
    r0: np.ndarray | None = None,
) -> np.ndarray:
    """Exact batched integer ranks via fraction-free elimination.

    ``stack`` is ``(n, m, w)`` float64 holding exact integers; elimination
    proceeds over the ``w`` trailing-axis columns, pivoting among the ``m``
    rows.  ``prev0``/``r0`` resume from a phase-A snapshot (previous pivot
    and rank-so-far per matrix).  Raises ``OverflowError`` the moment the
    2^53 exactness envelope is threatened — the caller escalates to the
    residue arm.
    """
    n, m, w = stack.shape
    r = (
        np.zeros(n, dtype=np.int64)
        if r0 is None
        else r0.astype(np.int64, copy=True)
    )
    if n == 0 or m == 0 or w == 0:
        return r
    ar = np.arange(n)
    panel = np.ascontiguousarray(stack.transpose(2, 1, 0))  # (w, m, n)
    prev = (
        np.ones(n) if prev0 is None else np.asarray(prev0, dtype=np.float64).copy()
    )
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
# Elimination-prefix reuse (phase A snapshots + phase C suffix runs).
# ---------------------------------------------------------------------------


def _choose_prefix_depth(idx_pad: np.ndarray, q: int) -> tuple[int, np.ndarray, int]:
    """Pick the snapshot depth ``j`` maximizing modeled element-work
    savings: every candidate skips ``j`` steps of its own (narrow) panel;
    every distinct prefix class pays ``j`` steps at full width ``q``.

    Returns ``(j, class_id, n_classes)`` — ``j == 0`` disables the layer.
    """
    nm, w = idx_pad.shape
    if nm < MIN_PREFIX_BATCH or w < 2:
        return 0, np.zeros(nm, dtype=np.int64), nm
    jmax = min(8, w - 1)
    eq = np.ones(nm - 1, dtype=bool)
    best_j, best_gain = 0, 0.0
    best_cls = np.arange(nm, dtype=np.int64)
    for j in range(1, jmax + 1):
        eq &= idx_pad[1:, j - 1] == idx_pad[:-1, j - 1]
        u = nm - int(eq.sum())
        gain = j * (nm * (w - j) - u * q)
        if gain > best_gain:
            new_cls = np.ones(nm, dtype=bool)
            new_cls[1:] = ~eq
            best_j, best_gain = j, gain
            best_cls = np.cumsum(new_cls) - 1
    return best_j, best_cls, int(best_cls[-1]) + 1 if nm else 0


def _prefix_snapshot(
    bt: np.ndarray, idx_pad: np.ndarray, cls: np.ndarray, n_classes: int, j: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase A: eliminate each class's first ``j`` complement members once,
    at full panel width, returning ``(state, prev, rank)`` snapshots.

    The update runs over the whole ``(d, q)`` panel, so the eliminated
    member's column self-annihilates and the consumed pivot row lands at
    exactly zero — no explicit scatter is needed (on deficient steps the
    pivot column is identically zero and the update is a no-op).
    """
    d, q = bt.shape
    reps = np.zeros(n_classes, dtype=np.int64)
    reps[cls] = np.arange(idx_pad.shape[0])  # any member; last write wins
    ar = np.arange(n_classes)
    state = np.broadcast_to(bt, (n_classes, d, q)).copy()
    prev = np.ones(n_classes)
    rank = np.zeros(n_classes, dtype=np.int64)
    amax = max(float(state.max()), -float(state.min())) if state.size else 0.0
    for t in range(j):
        if amax > BAREISS_GUARD:
            raise OverflowError("prefix snapshot exceeds exactness envelope")
        c = idx_pad[reps, t]
        col = state[ar, :, c]  # (n_classes, d)
        piv = (col != 0.0).argmax(axis=1)
        pv_raw = col[ar, piv]
        has = pv_raw != 0.0
        pv = np.where(has, pv_raw, prev)
        gp = state[ar, piv, :].copy()  # (n_classes, q)
        state *= pv[:, None, None]
        state -= col[:, :, None] * gp[:, None, :]
        state /= prev[:, None, None]
        prev = pv
        rank += has
        amax = max(float(state.max()), -float(state.min()))
    return state, prev, rank


def _exact_complement_ranks(
    bt: np.ndarray, idx_pad: np.ndarray, stats=None
) -> np.ndarray:
    """Ranks of ``B[S̄, :]`` for a padded descending member-index matrix,
    through the prefix-reuse layer when profitable."""
    nm = idx_pad.shape[0]
    d, q = bt.shape
    j, cls, n_classes = _choose_prefix_depth(idx_pad, q)
    if j > 0:
        state, prev, rank = _prefix_snapshot(bt, idx_pad, cls, n_classes, j)
        # Gather each candidate's suffix columns straight out of its class
        # snapshot — one fancy index, never materializing the full-width
        # (nm, d, q) per-candidate states.
        sub = state[
            cls[:, None, None], np.arange(d)[None, :, None], idx_pad[:, None, j:]
        ]
        out = bareiss_ranks(sub, prev0=prev[cls], r0=rank[cls])
        if stats is not None:
            stats.n_prefix_reused_cols += (nm - n_classes) * j
        return out
    sub = bt[:, idx_pad]  # (d, nm, w)
    return bareiss_ranks(np.ascontiguousarray(sub.transpose(1, 0, 2)))


# ---------------------------------------------------------------------------
# The backend entry point.
# ---------------------------------------------------------------------------


def _call_keys(
    cache: CacheBinding,
    words: np.ndarray,
    mask_t: np.ndarray,
    sizes: np.ndarray,
) -> list:
    """Memo keys for *all* candidates of a call in one vectorized pass.

    The modular backend needs no support-size bucketing (its kernel merges
    every miss into one complement stack), so instead of the per-bucket
    rectangular ``cols`` gathers of :func:`~repro.linalg.batched.
    iter_size_buckets` the keys come straight off the ragged support lists:
    packed-word rows on the fast path, a single lexsort of canonical column
    ids grouped by candidate on the divide-and-conquer path (variable-size
    multisets slice out of one contiguous blob by the size prefix sums).
    Key bytes are identical to :meth:`CacheBinding.keys`, so entries stay
    shared with the batched backend.
    """
    token = cache.token
    if cache.col_ids is None:
        rows = np.ascontiguousarray(words)
        stride = rows.shape[1] * rows.itemsize
        if stride == 0:
            return [token] * rows.shape[0]
        blob = rows.tobytes()
        return [token + blob[i : i + stride] for i in range(0, len(blob), stride)]
    # Walking the mask in ascending-canonical-id column order makes each
    # row's gathered ids pre-sorted — no per-row (or whole-call) sort.
    ci = np.nonzero(mask_t[:, cache.col_perm])[1]
    blob = np.ascontiguousarray(cache.col_ids_sorted[ci]).tobytes()
    ends = np.cumsum(sizes, dtype=np.int64) * 8
    starts = ends - sizes.astype(np.int64) * 8
    return [
        token + blob[s:e] for s, e in zip(starts.tolist(), ends.tolist())
    ]


def _padded_complements(
    mask_t: np.ndarray, miss_idx: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Complement member-index matrix for the miss candidates, members in
    descending column order, short rows padded by repeating their last
    (smallest) member — a duplicated column never changes the rank.

    Returns ``(idx_pad, comp_counts)``.  Descending order matches
    :func:`repro.linalg.bitset.lexsort_rows` on complement words (the
    highest set bit dominates the packed comparison), so lexsorted batches
    put equal leading members adjacent for the prefix layer.
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


def _complement_words(words: np.ndarray, q: int) -> np.ndarray:
    """Packed complement supports (tail bits beyond ``q`` masked off)."""
    comp = ~words
    tail = q % 64
    if tail:
        comp = comp.copy()
        comp[:, -1] &= np.uint64((1 << tail) - 1)
    return comp


def _kernel_nullities(
    prob: ModularProblem, idx_pad: np.ndarray, stats=None
) -> tuple[np.ndarray, np.ndarray]:
    """Nullity estimates for the padded complement stacks, plus a mask of
    candidates needing SVD resolution (prime disagreement).

    Exact arm first; on overflow the residue arm takes the whole stack:
    prime 1, then prime 2 for every nullity-≥2 estimate, keeping the
    minimum (reduction can only inflate nullity, so the minimum is the
    sharper bound and any estimate of 1 is a certificate).
    """
    d = prob.d
    unresolved = np.zeros(idx_pad.shape[0], dtype=bool)
    if prob.bt is not None:
        try:
            ranks = _exact_complement_ranks(prob.bt, idx_pad, stats=stats)
            return d - ranks, unresolved
        except OverflowError:
            pass
    p1, p2 = prob.primes[0], prob.primes[1]
    b1 = prob.residue_basis(p1)
    if b1 is None:
        unresolved[:] = True
        return np.full(idx_pad.shape[0], -1, dtype=np.int64), unresolved
    sub = b1[:, idx_pad]  # (d, nm, w) — members as columns of the panel
    null1 = d - _modp_ranks(
        np.ascontiguousarray(sub.transpose(1, 0, 2)), p1
    )
    need = null1 >= 2
    if need.any():
        b2 = prob.residue_basis(p2)
        if b2 is None:
            unresolved |= need
            return null1, unresolved
        sub2 = b2[:, idx_pad[need]]
        null2 = d - _modp_ranks(
            np.ascontiguousarray(sub2.transpose(1, 0, 2)), p2
        )
        n1 = null1[need]
        resolved = np.minimum(n1, null2)
        # A certificate (either prime saw nullity 1) or two agreeing
        # estimates settle the candidate; a remaining disagreement — both
        # primes ≥ 2 but different — escalates to the SVD reference.
        disagree = (resolved >= 2) & (n1 != null2)
        null1[need] = resolved
        unresolved[np.flatnonzero(need)[disagree]] = True
    return null1, unresolved


def modular_ranks(
    n_perm: np.ndarray,
    support_mask: np.ndarray,
    sizes: np.ndarray,
    *,
    policy: NumericPolicy,
    n_exact=None,
    words: np.ndarray | None = None,
    cache: CacheBinding | None = None,
    stats=None,
) -> np.ndarray:
    """Ranks of ``n_perm[:, S_i]`` via the modular residue-field engine.

    Drop-in for :func:`repro.linalg.batched.bucketed_ranks` (same contract,
    same memo composition): one vectorized key pass drives the cache
    lookups (:func:`_call_keys` — byte-compatible with the batched keys),
    all misses of a call are merged into one lexsorted complement stack for
    the kernel, and computed ranks are stored back tagged ``"modular"``.
    Exact-arithmetic runs and unprepared problems delegate wholesale to the
    batched engine (the latter counted in ``n_rank_fallback``).
    """
    n = int(sizes.size)
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ranks
    if n_exact is not None:
        return bucketed_ranks(
            n_perm, support_mask, sizes, policy=policy, n_exact=n_exact,
            words=words, cache=cache, stats=stats,
        )
    prob = problem_for(n_perm, policy)
    if not prob.ok:
        if stats is not None:
            stats.n_rank_fallback += n
        return bucketed_ranks(
            n_perm, support_mask, sizes, policy=policy, words=words,
            cache=cache, stats=stats,
        )
    if words is None:
        words = bitset.pack_supports(support_mask)

    mask_t = np.ascontiguousarray(support_mask.T)  # (n, q)
    if cache is not None:
        keys = _call_keys(cache, words, mask_t, sizes)
        miss_pos = split_cache_hits(cache, keys, np.arange(n), ranks, stats)
        if not miss_pos:
            return ranks
        miss_idx = np.asarray(miss_pos, dtype=np.int64)
        miss_keys: list = [keys[j] for j in miss_pos]
    else:
        miss_idx = np.arange(n, dtype=np.int64)
        miss_keys = [None] * n
    s_arr = sizes[miss_idx].astype(np.int64)
    nm = miss_idx.size

    # Lexsort by complement words so equal leading members are adjacent.
    comp_words = _complement_words(words[miss_idx], prob.q)
    order = bitset.lexsort_rows(comp_words)
    miss_idx = miss_idx[order]
    s_arr = s_arr[order]
    miss_keys = [miss_keys[int(i)] for i in order]

    idx_pad, counts = _padded_complements(mask_t, miss_idx, s_arr)
    empty = counts == 0  # full-support candidates: rank(B[∅]) = 0
    if stats is not None:
        stats.n_rank_batches += 1
        stats.rank_batch_max = max(stats.rank_batch_max, nm)
        stats.n_rank_modular += nm
    nullities, unresolved = _kernel_nullities(prob, idx_pad, stats=stats)
    nullities[empty] = prob.d
    unresolved &= ~empty
    miss_ranks = s_arr - nullities
    if unresolved.any():
        # Prime-disagreement escalation: the SVD reference settles the
        # stragglers (counted as fallbacks — the kernel did not certify).
        u = np.flatnonzero(unresolved)
        if stats is not None:
            stats.n_rank_fallback += u.size
            stats.n_rank_modular -= u.size
        s_u = s_arr[u]
        cols_u = np.nonzero(mask_t[miss_idx[u]])[1]
        svd_ranks = np.zeros(u.size, dtype=np.int64)
        start = 0
        for k, su in enumerate(s_u.tolist()):
            sel = cols_u[start : start + su][None, :]
            svd_ranks[k] = batched_ranks(n_perm, sel, policy)[0]
            start += su
        miss_ranks[u] = svd_ranks
    ranks[miss_idx] = miss_ranks
    if cache is not None:
        store = cache.cache.store
        for key, rk in zip(miss_keys, miss_ranks.tolist()):
            if key is not None:
                store(key, rk, "modular")
    return ranks
