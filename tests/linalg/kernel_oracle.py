"""Reference construction of the ``(I; R)`` kernel in exact ``Fraction``
arithmetic: two RREFs, the second forcing the chosen pivots.

:func:`repro.linalg.numeric.kernel_identity_form` must return bit-identical
``(kernel, col_perm)`` from its single fraction-free integer elimination.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import rational


def oracle_kernel_identity_form(
    n: np.ndarray, pivot_priority: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    q = n.shape[1]
    if pivot_priority is not None:
        scan_order = np.argsort(np.asarray(pivot_priority), kind="stable")
    else:
        scan_order = np.arange(q)
    nf = np.asarray(n, dtype=np.float64)
    _, pivots_scan = rational.rref(rational.from_numpy(nf[:, scan_order]))
    pivots = sorted(int(scan_order[p]) for p in pivots_scan)
    pivot_set = set(pivots)
    free_cols = [c for c in range(q) if c not in pivot_set]
    col_perm = np.array(free_cols + pivots, dtype=np.intp)
    # Scanning the chosen pivots first forces RREF to use exactly them as
    # pivots, so the nullspace is parametrized by our free set.
    scan2 = np.array(pivots + free_cols, dtype=np.intp)
    basis2 = rational.exact_nullspace(rational.from_numpy(nf[:, scan2]))
    ints = rational.integerize_columns(basis2)
    arr2 = np.array(ints, dtype=np.float64).reshape(q, len(free_cols))
    pos_in_scan2 = {int(c): i for i, c in enumerate(scan2)}
    kernel = arr2[[pos_in_scan2[int(c)] for c in col_perm], :]
    return kernel, col_perm
