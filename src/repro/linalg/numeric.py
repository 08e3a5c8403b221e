"""Tolerant floating-point linear algebra for the enumeration inner loop.

Everything here is vectorized numpy on float64.  The exactness-critical
one-off step — the initial ``(I; R)`` kernel — is built by fraction-free
integer elimination (:mod:`repro.linalg.modular`) and converted to float
once; per-candidate steps (support extraction, rank tests) use tolerances
from :class:`repro.config.NumericPolicy`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import DEFAULT_POLICY, NumericPolicy
from repro.errors import LinAlgError
from repro.linalg import modular, rational


def column_normalize(cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale each column of ``cols`` to unit max-norm (in place if ``out``
    is ``cols``).

    Normalization after every convex combination keeps the zero threshold
    meaningful across iterations; without it candidate magnitudes drift by
    orders of magnitude on the yeast networks (biomass coefficients ~4e4).
    Zero columns are left untouched.
    """
    if cols.ndim != 2:
        raise LinAlgError("column_normalize expects a 2-D array")
    scale = np.abs(cols).max(axis=0)
    scale[scale == 0.0] = 1.0
    if out is None:
        return cols / scale
    np.divide(cols, scale, out=out)
    return out


def support_of(cols: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Boolean support mask of each column: shape ``(n_rows, n_cols)``.

    A value counts as non-zero when ``|x| > zero_tol * max(1, colmax)``.
    """
    colmax = np.abs(cols).max(axis=0) if cols.size else np.zeros(cols.shape[1])
    thresh = policy.zero_tol * np.maximum(colmax, 1.0)
    return np.abs(cols) > thresh


def clean_zeros(cols: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Snap sub-threshold entries of each column to exact 0.0 (in place).

    Keeps supports and numeric values consistent so that later sign splits
    never disagree with the packed support bits.
    """
    mask = support_of(cols, policy)
    cols[~mask] = 0.0
    return cols


def numeric_rank(a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Numeric rank via SVD with a relative singular-value cutoff.

    Matches the efmtool convention: cutoff is
    ``rank_tol * sigma_max * max(shape)`` with an absolute floor so the
    all-zero matrix has rank 0.
    """
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = policy.rank_tol * s[0] * max(a.shape)
    cutoff = max(cutoff, 1e-300)
    return int(np.count_nonzero(s > cutoff))


def nullity(a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Right-nullspace dimension: ``n_cols - rank``."""
    return a.shape[1] - numeric_rank(a, policy)


def kernel_identity_form(
    n: np.ndarray,
    *,
    pivot_priority: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Initial nullspace matrix of ``n`` in the paper's ``(I; R)`` form.

    Reduces the stoichiometric matrix ``n`` to row echelon form and permutes
    *columns* (reactions) so the matrix reads ``(-R2, I_m)`` up to row
    operations; the kernel then takes the block form::

        K = [ I_{q-m'} ]
            [   R2     ]

    where ``m'`` is the rank of ``n``.  Returns ``(kernel, col_perm)``:

    - ``kernel``: shape ``(q, q - m')`` float64 with ``kernel[perm][:q-m']``
      equal to the identity, i.e. the *permuted* network ``n[:, col_perm]``
      has the literal block-form kernel.  The returned kernel rows are in
      the **permuted** reaction order (free reactions first, pivot reactions
      below), matching eq. (5) of the paper.
    - ``col_perm``: the reaction permutation applied, length ``q``; entry
      ``i`` gives the original column index now in permuted position ``i``.

    ``pivot_priority`` (integer, one entry per column; lower scans earlier)
    biases which columns become *pivots* (and thus land in the processed
    ``R2`` block): elimination takes the leftmost independent columns as
    pivots, so low-priority-value columns are preferred.  The Nullspace Algorithm
    requires every reversible reaction to be a pivot — a reversible
    reaction in the identity block would never be processed and its
    negative-flux EFMs would be silently lost — so callers pass priority
    ``-1`` for reversible reactions (and ``+1`` for columns they want kept
    free, e.g. to reproduce the paper's worked example).

    The construction is exact: the stoichiometry is rescaled column by
    column to integers (:func:`_integer_columns`) and eliminated once, in
    scan order, by fraction-free Montante elimination
    (:func:`repro.linalg.modular.int_kernel`; rerun on Python integers when
    int64 would overflow).  Each kernel row is multiplied back by its
    column scale and each column reduced to the coprime integer vector
    whose free entry is positive, then converted to float.  The basis
    parametrized by a fixed free set is unique, so this equals the
    column-integerized RREF nullspace of the rational matrix.
    """
    if n.ndim != 2:
        raise LinAlgError("kernel_identity_form expects a 2-D stoichiometry")
    q = n.shape[1]
    if pivot_priority is not None:
        prio = np.asarray(pivot_priority)
        if prio.shape != (q,):
            raise LinAlgError("pivot_priority length mismatch")
        # Stable sort: low priority scans first and the elimination's
        # leftmost-independent pivot rule picks those as pivots.
        scan_order = np.argsort(prio, kind="stable").astype(np.intp)
    else:
        scan_order = np.arange(q, dtype=np.intp)
    nf = np.asarray(n, dtype=np.float64)
    a_int, scales = _integer_columns(nf[:, scan_order])
    try:
        pivots_scan, basis = modular.int_kernel(a_int)
    except OverflowError:
        pivots_scan, basis = modular.int_kernel(a_int.astype(object))
    if any(s != 1 for s in scales):
        # ker(n) = diag(scales) · ker(n · diag(scales)).
        basis = modular.gcd_reduce_columns(
            basis.astype(object) * np.array(scales, dtype=object)[:, None]
        )
    is_free = np.ones(q, dtype=bool)
    is_free[pivots_scan] = False
    free_scan = np.flatnonzero(is_free)
    flip = basis[free_scan, np.arange(free_scan.size)] < 0
    basis[:, flip] = -basis[:, flip]
    # Permuted order: free (identity-part) reactions first, pivots after,
    # each block in input column order; kernel columns follow the free
    # reactions in the same order.
    free_cols = scan_order[free_scan]
    col_perm = np.concatenate(
        [np.sort(free_cols), np.sort(scan_order[pivots_scan])]
    ).astype(np.intp)
    scan_pos = np.empty(q, dtype=np.intp)
    scan_pos[scan_order] = np.arange(q)
    kernel = basis[scan_pos[col_perm]][:, np.argsort(free_cols)].astype(np.float64)
    # Sanity: permuted stoichiometry annihilates the kernel.
    resid = np.abs(nf[:, col_perm] @ kernel)
    if resid.size:
        scale = max(1.0, float(np.abs(kernel).max()), float(np.abs(nf).max()))
        if resid.max() > 1e-6 * scale:
            raise LinAlgError(
                f"kernel residual too large: {resid.max():.3e} (scale {scale:.3e})"
            )
    return kernel, col_perm


def _integer_columns(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
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
    if not frac_cols.size and (not r.size or np.abs(r).max() < modular.INT_KERNEL_GUARD):
        return r.astype(np.int64), scales
    out = np.array([[int(x) for x in row] for row in r.tolist()], dtype=object)
    out = out.reshape(a.shape)
    for j in frac_cols.tolist():
        col = [rational.float_to_fraction(x) for x in a[:, j].tolist()]
        scales[j] = math.lcm(*(f.denominator for f in col))
        out[:, j] = np.array([int(f * scales[j]) for f in col], dtype=object)
    if np.abs(out).max() < modular.INT_KERNEL_GUARD:
        out = out.astype(np.int64)
    return out, scales


def _float_nullspace(a: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """SVD-based orthonormal nullspace basis (columns)."""
    if a.size == 0:
        return np.eye(a.shape[1])
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = policy.rank_tol * (s[0] if s.size else 0.0) * max(a.shape)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].T.copy()


def gcd_reduce_rows(mat: np.ndarray) -> np.ndarray:
    """Divide each row of an integer matrix by the GCD of its entries.

    Utility for presenting integerized EFM matrices the way the paper
    prints them.  Zero rows pass through unchanged.
    """
    out = np.array(mat, dtype=np.int64, copy=True)
    for i in range(out.shape[0]):
        g = int(np.gcd.reduce(np.abs(out[i])))
        if g > 1:
            out[i] //= g
    return out


def columns_proportional(
    a: np.ndarray, b: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """True iff 1-D vectors ``a`` and ``b`` are positive multiples of each
    other (same ray)."""
    sa = support_of(a[:, None], policy)[:, 0]
    sb = support_of(b[:, None], policy)[:, 0]
    if not np.array_equal(sa, sb):
        return False
    if not sa.any():
        return True
    ia = int(np.argmax(np.abs(a)))
    ratio = b[ia] / a[ia]
    if ratio <= 0:
        return False
    return bool(np.allclose(a * ratio, b, rtol=1e-6, atol=policy.zero_tol))
