"""Tests for extreme pathways and their relation to EFMs (paper ref [30])."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.efm.api import compute_efms
from repro.efm.extreme_pathways import (
    classify_extreme,
    extreme_pathways,
    is_extreme_ray,
    split_all_reversible,
)
from repro.errors import AlgorithmError
from repro.models.generators import random_network


def _integer_rows(fluxes):
    """Unit max-norm float rows of small rationals as coprime integer rows."""
    rows = []
    for row in fluxes.tolist():
        fr = [Fraction(v).limit_denominator(10**6) for v in row]
        scale = math.lcm(*(f.denominator for f in fr))
        ints = [int(f * scale) for f in fr]
        g = math.gcd(*ints) or 1
        rows.append([v // g for v in ints])
    return np.array(rows, dtype=np.int64).reshape(len(rows), fluxes.shape[1])


class TestIsExtremeRay:
    def test_orthant_axes_extreme(self):
        rays = np.eye(3)
        for i in range(3):
            assert is_extreme_ray(rays, i)

    def test_interior_ray_not_extreme(self):
        rays = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert is_extreme_ray(rays, 0)
        assert is_extreme_ray(rays, 1)
        assert not is_extreme_ray(rays, 2)

    def test_scaled_combination_detected(self):
        rays = np.array([[2.0, 0.0], [0.0, 3.0], [4.0, 1.5]])
        assert not is_extreme_ray(rays, 2)  # 2*r0 + 0.5*r1

    def test_single_ray_extreme(self):
        assert is_extreme_ray(np.array([[1.0, 2.0]]), 0)

    def test_index_validated(self):
        with pytest.raises(AlgorithmError):
            is_extreme_ray(np.eye(2), 5)


class TestExtremePathways:
    def test_toy_expas_are_nonnegative(self, toy):
        expas = extreme_pathways(toy)
        assert expas.n_efms > 0
        assert expas.fluxes.min() >= -1e-12
        expas.validate()

    def test_two_cycles_dropped(self, toy):
        with_cycles = extreme_pathways(toy, drop_two_cycles=False)
        without = extreme_pathways(toy)
        # The toy network has 2 reversible reactions -> 2 spurious cycles.
        assert with_cycles.n_efms == without.n_efms + 2

    def test_every_efm_appears_in_split_modes(self, toy):
        """Each of the 8 EFMs of eq. (7) maps to a split-network mode."""
        efms = compute_efms(toy)
        rec = split_all_reversible(toy)
        expa_like = extreme_pathways(toy)
        folded = rec.fold_modes(_integer_rows(expa_like.fluxes))
        from tests.conftest import canonical_rows

        a = canonical_rows(efms.fluxes)
        b = canonical_rows(folded)
        assert a.shape == b.shape and np.allclose(a, b)

    def test_expas_subset_of_split_efms(self, toy):
        result = extreme_pathways(toy)
        mask = classify_extreme(result)
        # ref [30]: ExPas form a (possibly strict) subset of the split
        # network's EFMs; here at least one mode must be extreme.
        assert mask.any()
        assert mask.sum() <= result.n_efms

    def test_extreme_classification_consistent_under_scaling(self, toy):
        result = extreme_pathways(toy)
        mask1 = classify_extreme(result)
        import dataclasses

        scaled = dataclasses.replace(result, fluxes=result.fluxes * 3.0)
        mask2 = classify_extreme(scaled)
        assert np.array_equal(mask1, mask2)

    def test_negative_coordinates_rejected(self, toy):
        efms = compute_efms(toy)  # has negative reversible fluxes
        with pytest.raises(AlgorithmError):
            classify_extreme(efms)

    def test_irreversible_network_expas_equal_efms(self):
        """With no reversible reactions the flux cone is already pointed:
        the EFM set and the ExPa set coincide."""
        net = random_network(4, 8, seed=3, reversible_fraction=0.0)
        efms = compute_efms(net)
        expas = extreme_pathways(net)
        assert efms.same_modes_as(expas if expas.network is net else
                                  compute_efms(net))
        mask = classify_extreme(expas)
        # For elementary modes of a pointed cone described by Nv=0, v>=0,
        # support-minimality and extremality coincide (ref [30]).
        assert mask.all()
