"""The initial ``(I; R)`` kernel of the enumeration, in exact integers.

The kernel is built by fraction-free integer elimination
(:mod:`repro.linalg.modular`) and stays integer: its columns are the
Nullspace Algorithm's starting modes, which the iteration carries as
exact integer rows (:mod:`repro.core.state`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LinAlgError
from repro.linalg import modular

#: Bound of the int64 mode representation (see repro.core.state).
INT64_LIMIT = 2**63


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

    - ``kernel``: shape ``(q, q - m')``, int64 (Python ints, ``object``
      dtype, when an entry leaves the int64 range), with ``kernel[perm][:q-m']``
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
    column to integers (:func:`repro.linalg.modular.integer_columns`, the
    rank test's reading of the same matrix) and eliminated once, in
    scan order, by fraction-free Montante elimination
    (:func:`repro.linalg.modular.int_kernel`; rerun on Python integers when
    int64 would overflow).  Each kernel row is multiplied back by its
    column scale and each column reduced to the coprime integer vector
    whose free entry is positive.  The basis
    parametrized by a fixed free set is unique, so this equals the
    column-integerized RREF nullspace of the rational matrix.
    """
    if n.ndim != 2:
        raise LinAlgError("kernel_identity_form expects a 2-D stoichiometry")
    q = n.shape[1]
    scan_order = _scan_order(q, pivot_priority)
    nf = np.asarray(n, dtype=np.float64)
    a_int, scales = modular.integer_columns(nf[:, scan_order])
    try:
        pivots_scan, basis = modular.int_kernel(a_int)
    except OverflowError:
        pivots_scan, basis = modular.int_kernel(a_int.astype(object))
    if a_int.size and not modular.verify_kernel(a_int, basis):
        raise LinAlgError("integer kernel basis does not annihilate the stoichiometry")
    if any(s != 1 for s in scales):
        # ker(n) = diag(scales) · ker(n · diag(scales)).
        basis = modular.gcd_reduce_columns(
            basis.astype(object) * np.array(scales, dtype=object)[:, None]
        )
    is_free = np.ones(q, dtype=bool)
    is_free[pivots_scan] = False
    free_scan = np.flatnonzero(is_free)
    return _identity_layout(basis, scan_order, free_scan)


def identity_form_from_basis(
    basis: np.ndarray,
    *,
    pivot_priority: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kernel_identity_form` of a stoichiometry ``n``, read off an
    exact integer basis ``basis`` (``(q, d)``, full column rank) of
    ``ker n`` instead of eliminating ``n``.

    Returns the same ``(kernel, col_perm)``, bit for bit.  The pivot
    columns of ``n`` are its lex-first independent column set in scan
    order; their complement, the free set, is the lex-last set of
    independent *rows* of any kernel basis (the dual matroid's greedy
    basis, taken in reverse scan order).  Montante elimination of
    ``basisᵀ`` with its columns in reverse scan order therefore pivots
    exactly on the free set, and its eliminated row ``k`` is the kernel
    vector that is zero on every free reaction but the ``k``-th.  That
    vector is unique up to scale, so reducing it to the coprime integer
    vector with a positive free entry gives what the elimination of
    ``n`` gives.
    """
    q, d = basis.shape
    scan_order = _scan_order(q, pivot_priority)
    rev = scan_order[::-1]
    bt = np.ascontiguousarray(basis.T[:, rev])
    try:
        free_rev, rows, _ = modular.montante(bt)
    except OverflowError:
        free_rev, rows, _ = modular.montante(bt.astype(object))
    if len(free_rev) != d:
        raise LinAlgError("kernel basis columns are linearly dependent")
    # Row k of the eliminated matrix is the free-set-parametrized kernel
    # vector of free reaction rev[free_rev[k]], scaled by the last pivot.
    scan_pos = np.empty(q, dtype=np.intp)
    scan_pos[scan_order] = np.arange(q)
    by_scan = np.empty((q, d), dtype=rows.dtype)
    by_scan[scan_pos[rev]] = rows[:d].T
    # Kernel columns follow the free reactions in scan order.
    free_pos = scan_pos[rev[free_rev]]
    order = np.argsort(free_pos)
    basis_scan = modular.gcd_reduce_columns(np.ascontiguousarray(by_scan[:, order]))
    return _identity_layout(basis_scan, scan_order, free_pos[order])


def _scan_order(q: int, pivot_priority: np.ndarray | None) -> np.ndarray:
    """Column scan order of the elimination: stable ascending priority."""
    if pivot_priority is None:
        return np.arange(q, dtype=np.intp)
    prio = np.asarray(pivot_priority)
    if prio.shape != (q,):
        raise LinAlgError("pivot_priority length mismatch")
    # Stable sort: low priority scans first and the elimination's
    # leftmost-independent pivot rule picks those as pivots.
    return np.argsort(prio, kind="stable").astype(np.intp)


def _identity_layout(
    basis: np.ndarray, scan_order: np.ndarray, free_scan: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(kernel, col_perm)`` from a free-set-parametrized kernel basis
    whose rows are in scan order and whose column ``k`` belongs to the
    ``k``-th free scan position ``free_scan[k]``: each column signed so its
    free entry is positive, int64 when every entry fits."""
    q = scan_order.size
    if basis.dtype == object and (not basis.size or np.abs(basis).max() < INT64_LIMIT):
        basis = basis.astype(np.int64)
    flip = basis[free_scan, np.arange(free_scan.size)] < 0
    basis[:, flip] = -basis[:, flip]
    is_free = np.zeros(q, dtype=bool)
    is_free[free_scan] = True
    pivots_scan = np.flatnonzero(~is_free)
    # Permuted order: free (identity-part) reactions first, pivots after,
    # each block in input column order; kernel columns follow the free
    # reactions in the same order.
    free_cols = scan_order[free_scan]
    col_perm = np.concatenate(
        [np.sort(free_cols), np.sort(scan_order[pivots_scan])]
    ).astype(np.intp)
    scan_pos = np.empty(q, dtype=np.intp)
    scan_pos[scan_order] = np.arange(q)
    kernel = basis[scan_pos[col_perm]][:, np.argsort(free_cols)]
    return np.ascontiguousarray(kernel), col_perm
