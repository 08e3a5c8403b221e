"""Exact rational reading of floating-point stoichiometry.

Stoichiometric coefficients of real metabolic models are rationals (the
yeast biomass reaction R70 has coefficients up to 40141).  The initial
``(I; R)`` kernel and the rank test run fraction-free integer elimination
(:mod:`repro.linalg.modular`) on an integer rescale of the stoichiometry;
this module supplies its float-to-rational reading
(:func:`float_to_fraction`).
"""

from __future__ import annotations

from fractions import Fraction

#: A matrix as a list of rows of :class:`fractions.Fraction`.
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
