"""Unit tests for network compression (the preprocessing reduction)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.models.registry import get_network, list_networks
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork, Reaction
from repro.network.parser import network_from_equations
from repro.network.stoichiometry import stoichiometric_matrix


class TestToyReduction:
    """The paper's eq. (2) -> eq. (4) reduction."""

    def test_shapes(self, toy_record):
        assert toy_record.original.shape == (5, 9)
        assert toy_record.reduced.shape == (4, 8)

    def test_d_and_r9_eliminated(self, toy_record):
        assert "D" not in toy_record.reduced.metabolite_names
        assert not toy_record.reduced.has_reaction("r9")

    def test_r9_merged_into_r3(self, toy_record):
        assert toy_record.merged_groups["r3"] == ("r3", "r9")

    def test_reduced_matches_eq4(self, toy_record):
        n = stoichiometric_matrix(toy_record.reduced)
        # eq. (4), rows A,B,C,P; columns r1..r8r.
        expected = np.array(
            [
                [1, -1, 0, 0, -1, 0, 0, 0],
                [0, 0, 0, 0, 1, -1, -1, -1],
                [0, 1, -1, 0, 0, 1, 0, 0],
                [0, 0, 1, -1, 0, 0, 2, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(n, expected)

    def test_expansion_maps_r3_flux_to_r9(self, toy_record):
        reduced_flux = np.zeros((8, 1))
        reduced_flux[2, 0] = 5.0  # r3 in reduced order
        full = toy_record.expand_fluxes(reduced_flux)
        i3 = toy_record.original.reaction_index("r3")
        i9 = toy_record.original.reaction_index("r9")
        assert full[i3, 0] == 5.0
        assert full[i9, 0] == 5.0

    def test_no_blocked_no_singletons(self, toy_record):
        assert toy_record.blocked == ()
        assert toy_record.singletons == ()

    def test_summary_mentions_shapes(self, toy_record):
        assert "5x9 -> 4x8" in toy_record.summary()


class TestBlocking:
    def test_dead_end_product_blocks_chain(self):
        # C is produced but never consumed -> b blocked -> A dead-ends too.
        net = network_from_equations(
            "t", ["a : Aext => A", "b : A => C", "keep : Aext => Q", "out : Q => Qext"]
        )
        rec = compress_network(net)
        assert "b" in rec.blocked
        assert "a" in rec.blocked  # cascades: A's only consumer died
        # The healthy keep/out chain merges through Q into an unconstrained
        # singleton mode.
        assert len(rec.singletons) == 1
        assert set(rec.singletons[0].fluxes) == {"keep", "out"}

    def test_single_reaction_metabolite_blocked_even_reversible(self):
        net = network_from_equations(
            "t", ["solo : A <=> B", "x : B <=> Bext", "y : Bext2 => B"]
        )
        # A touched only by 'solo' -> solo blocked regardless of reversibility.
        rec = compress_network(net)
        assert "solo" in rec.blocked

    def test_reversible_prevents_same_sign_blocking(self):
        # M produced by two irreversible reactions but consumed via a
        # reversible one: nothing blocks.
        net = network_from_equations(
            "t",
            ["p1 : Aext => M", "p2 : Bext => M", "rv : M <=> Mext"],
        )
        rec = compress_network(net)
        assert rec.blocked == ()


class TestMerging:
    def test_chain_merges_to_single_column(self):
        net = network_from_equations(
            "t", ["a : Aext => A", "b : A => B", "c : B => Bext"]
        )
        rec = compress_network(net)
        # A chain with unique intermediates collapses entirely; everything
        # becomes one unconstrained merged reaction = one singleton EFM.
        assert len(rec.singletons) == 1
        fluxes = rec.singletons[0].fluxes
        assert set(fluxes) == {"a", "b", "c"}
        assert len(set(fluxes.values())) == 1  # equal rates

    def test_merge_ratio_from_stoichiometry(self):
        net = network_from_equations(
            "t", ["a : Aext => 2 M", "b : M => Bext"]
        )
        rec = compress_network(net)
        assert len(rec.singletons) == 1
        f = rec.singletons[0].fluxes
        assert f["b"] == 2 * f["a"]

    def test_opposed_irreversible_pair_blocked(self):
        # Both produce M irreversibly; merge would need v1 = -v2 < 0.
        net = network_from_equations(
            "t", ["p1 : Aext => M", "p2 : Bext => M"]
        )
        rec = compress_network(net)
        assert set(rec.blocked) == {"p1", "p2"}

    def test_direction_flip_when_backward_forced(self):
        # v_a <= 0 forced: 'a' reversible, 'b' irreversible consuming M
        # from the same side; merged variable is flipped to stay >= 0.
        net = network_from_equations(
            "t",
            ["a : M <=> Aext", "b : B2ext => M"],
        )
        rec = compress_network(net)
        # M touched by exactly a and b; merged must be feasible:
        # balance: -v_a + v_b = 0 -> v_a = v_b >= 0... direction fine;
        # the merged column is empty -> singleton.
        assert len(rec.singletons) == 1

    def test_merged_reversibility(self):
        net = network_from_equations(
            "t",
            ["a : Aext <=> M", "b : M <=> Bext"],
        )
        rec = compress_network(net)
        assert len(rec.singletons) == 1
        assert rec.singletons[0].reversible

    def test_two_cycle_becomes_singleton(self):
        net = network_from_equations(
            "t",
            [
                "fwd : A => B",
                "bwd : B => A",
                "io1 : Aext => A",
                "io2 : A => A2ext",
                "use : B => B2ext",
                "mk : B3ext => B",
            ],
        )
        rec = compress_network(net)
        # The fwd/bwd pair is NOT a unique pair through any metabolite here
        # (A and B have other reactions), so no singleton; this guards the
        # merge precondition.
        assert rec.singletons == ()


class TestYeastReduction:
    def test_network_1_shape_and_blocked_oxygen(self):
        from repro.models.yeast import yeast_network_1

        rec = compress_network(yeast_network_1())
        assert rec.original.shape == (62, 78)
        mo, qo = rec.reduced.shape
        assert mo < 62 and qo < 78
        # O2 import is a dead end in Network I (R56/R57 only exist in II).
        assert "R68" in rec.blocked

    def test_network_2_keeps_oxygen(self):
        from repro.models.yeast import yeast_network_2

        rec = compress_network(yeast_network_2())
        assert "R68" not in rec.blocked


class TestExpansionValidation:
    def test_expand_rejects_wrong_width(self, toy_record):
        from repro.errors import CompressionError

        with pytest.raises(CompressionError):
            toy_record.expand_fluxes(np.zeros((3, 1)))

    def test_reduced_steady_state_implies_original(self, toy_record):
        # Any reduced steady-state vector expands to an original one.
        n_red = stoichiometric_matrix(toy_record.reduced)
        n_orig = stoichiometric_matrix(toy_record.original)
        from scipy.linalg import null_space

        basis = null_space(n_red)
        full = toy_record.expand_fluxes(basis)
        assert np.allclose(n_orig @ full, 0.0, atol=1e-9)

    @pytest.mark.parametrize("name", list_networks())
    def test_expansion_array_matches_dense_conversion(self, name):
        rec = compress_network(get_network(name))
        dense = np.array([[float(c) for c in row] for row in rec.expansion])
        arr = rec.expansion_array
        assert arr.shape == (rec.original.n_reactions, rec.reduced.n_reactions)
        assert arr.dtype == np.float64
        assert np.array_equal(arr, dense)

    def test_expansion_array_of_identity_record(self, toy):
        from repro.efm.api import _identity_record

        assert np.array_equal(
            _identity_record(toy).expansion_array, np.eye(toy.n_reactions)
        )
