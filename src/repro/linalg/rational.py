"""Exact rational linear algebra over ``fractions.Fraction``.

Stoichiometric coefficients of real metabolic models are rationals (the
yeast biomass reaction R70 has coefficients up to 40141), and a float RREF
can misclassify near-zero pivots.  These routines answer rank and
nullspace questions exactly, at O(n^3) cost with big-int coefficient
growth — fine for the ``arithmetic="exact"`` rank test and for verifying
small networks, far too slow for the inner enumeration loop (which uses
:mod:`repro.linalg.numeric`).  The initial ``(I; R)`` kernel is built by
fraction-free integer elimination instead
(:func:`repro.linalg.numeric.kernel_identity_form`); this module only
supplies its float-to-rational reading (:func:`float_to_fraction`).

Matrices are represented as list-of-rows of :class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.errors import LinAlgError

FractionMatrix = list[list[Fraction]]


def float_to_fraction(x: float) -> Fraction:
    """Exact rational reading of a float: the nearest fraction with
    denominator at most 10**6 when it lies within 1e-12, else the float's
    exact binary value.  Integral floats convert losslessly.

    Floats arising from small rationals get cleaned up; the heuristic is
    exact for every stoichiometric model shipped with the package (all
    coefficients are n/2 at worst).
    """
    f = Fraction(x)
    limited = f.limit_denominator(10**6)
    return limited if abs(limited - f) < Fraction(1, 10**12) else f


def to_fraction_matrix(a: Iterable[Iterable[object]]) -> FractionMatrix:
    """Convert a nested iterable (ints, floats, strings, Fractions) to an
    exact matrix; floats follow :func:`float_to_fraction`."""
    out: FractionMatrix = []
    for row in a:
        frow: list[Fraction] = []
        for x in row:
            if isinstance(x, Fraction):
                frow.append(x)
            elif isinstance(x, (int, np.integer)):
                frow.append(Fraction(int(x)))
            elif isinstance(x, (float, np.floating)):
                frow.append(float_to_fraction(float(x)))
            else:
                frow.append(Fraction(x))  # type: ignore[arg-type]
        out.append(frow)
    shape_set = {len(r) for r in out}
    if len(shape_set) > 1:
        raise LinAlgError("ragged matrix passed to to_fraction_matrix")
    return out


def matrix_shape(a: FractionMatrix) -> tuple[int, int]:
    """Return ``(n_rows, n_cols)`` of a fraction matrix."""
    return (len(a), len(a[0]) if a else 0)


def rref(a: FractionMatrix) -> tuple[FractionMatrix, list[int]]:
    """Reduced row echelon form with partial (largest-magnitude) pivoting.

    Returns ``(R, pivot_cols)`` where ``R`` is a new matrix in RREF and
    ``pivot_cols`` lists the pivot column of each non-zero row in order.
    The input is not modified.
    """
    m, n = matrix_shape(a)
    r = [row[:] for row in a]
    pivot_cols: list[int] = []
    lead = 0
    for col in range(n):
        if lead >= m:
            break
        # Pick the largest-magnitude entry as pivot: keeps big-int growth
        # down measurably on the yeast networks.
        pivot_row = max(
            range(lead, m),
            key=lambda i: (r[i][col].numerator != 0, abs(r[i][col])),
        )
        if r[pivot_row][col] == 0:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        pivot = r[lead][col]
        r[lead] = [x / pivot for x in r[lead]]
        for i in range(m):
            if i != lead and r[i][col] != 0:
                factor = r[i][col]
                r[i] = [x - factor * y for x, y in zip(r[i], r[lead])]
        pivot_cols.append(col)
        lead += 1
    return r, pivot_cols


def exact_rank(a: FractionMatrix) -> int:
    """Exact rank via RREF."""
    _, pivots = rref(a)
    return len(pivots)


def exact_nullity(a: FractionMatrix) -> int:
    """Exact right-nullspace dimension: ``n_cols - rank``."""
    return matrix_shape(a)[1] - exact_rank(a)


def exact_nullspace(a: FractionMatrix) -> FractionMatrix:
    """Exact basis of the right nullspace of ``a``.

    Returns a matrix whose *columns* span ``{x : a @ x = 0}``, in the
    canonical RREF parametrization: for each free column ``f`` the basis
    vector has ``x[f] = 1``, ``x[p] = -R[row(p), f]`` for pivot columns
    ``p`` and zero elsewhere.  Shape is ``(n_cols, n_cols - rank)``; an
    empty nullspace yields a ``(n_cols, 0)`` matrix (list of ``n_cols``
    empty rows).
    """
    m, n = matrix_shape(a)
    if m == 0:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis: FractionMatrix = [[Fraction(0)] * len(free_cols) for _ in range(n)]
    for k, f in enumerate(free_cols):
        basis[f][k] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            basis[p][k] = -r[row_idx][f]
    return basis


def integerize_columns(a: FractionMatrix) -> list[list[int]]:
    """Scale each column of ``a`` to the smallest co-prime integer vector.

    Multiplies each column by the LCM of its denominators and divides by the
    GCD of the resulting numerators, preserving sign.  Used to hand the
    enumeration loop a clean integer kernel and to canonicalize EFMs for
    exact comparison.
    """
    m, n = matrix_shape(a)
    out = [[0] * n for _ in range(m)]
    for j in range(n):
        col = [a[i][j] for i in range(m)]
        denom_lcm = 1
        for x in col:
            denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
        ints = [int(x * denom_lcm) for x in col]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        for i in range(m):
            out[i][j] = ints[i]
    return out


def fraction_matmul(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    """Exact matrix product ``a @ b``."""
    ma, na = matrix_shape(a)
    mb, nb = matrix_shape(b)
    if na != mb:
        raise LinAlgError(f"shape mismatch in fraction_matmul: {na} vs {mb}")
    out = [[Fraction(0)] * nb for _ in range(ma)]
    for i in range(ma):
        arow = a[i]
        for k in range(na):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(nb):
                if brow[j] != 0:
                    orow[j] += aik * brow[j]
    return out


def is_zero_matrix(a: FractionMatrix) -> bool:
    """True iff every entry of ``a`` is exactly zero."""
    return all(x == 0 for row in a for x in row)


def from_numpy(a: np.ndarray) -> FractionMatrix:
    """Convert a numpy array (any numeric dtype) to an exact matrix."""
    return to_fraction_matrix(a.tolist())


def to_numpy(a: FractionMatrix, dtype=np.float64) -> np.ndarray:
    """Convert an exact matrix to a numpy array (lossy for big rationals)."""
    m, n = matrix_shape(a)
    out = np.zeros((m, n), dtype=dtype)
    for i in range(m):
        for j in range(n):
            out[i, j] = float(a[i][j])
    return out


def select_columns(a: FractionMatrix, cols: Sequence[int]) -> FractionMatrix:
    """Exact column selection ``a[:, cols]``."""
    return [[row[c] for c in cols] for row in a]
