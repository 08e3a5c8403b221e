"""Whole-pipeline integration tests on the yeast benchmark workloads.

These are the repository's "does it all hang together" tests: full
compression → kernel → algorithm → expansion runs on realistic networks,
cross-method consistency at benchmark scale, and the biological sanity of
the computed modes.
"""

import hashlib

import numpy as np
import pytest

from repro.efm import analysis
from repro.efm.api import compute_efms
from repro.models.variants import yeast_1_small, yeast_2_small
from repro.network.stoichiometry import stoichiometric_matrix

from tests.core.rank_oracle import solve_with


#: SHA-256 of the 7,331 yeast-II-small EFMs as sorted, sign-normalized
#: support/sign rows in registry reaction order (see :func:`efm_digest`).
#: The end-to-end benchmark pins the same value for its correctness check.
Y2_DIGEST = "99a1c7b06865e96b99bd4db64ed64b2dc21c79b367ea413792e653c2aa06a7b6"


def sign_rows(result) -> list[bytes]:
    """The sorted support/sign rows of ``result``, each sign-normalized so
    its first nonzero entry is positive (a fully reversible mode may come
    out with either sign)."""
    flux = result.fluxes
    signs = np.where(np.abs(flux) > 1e-9, np.sign(flux), 0).astype(np.int8)
    first = signs[np.arange(signs.shape[0]), (signs != 0).argmax(axis=1)]
    signs *= first[:, None]
    return sorted(row.tobytes() for row in signs)


def efm_digest(result) -> str:
    """SHA-256 over the shape and the :func:`sign_rows` of ``result``."""
    n_modes, q = result.fluxes.shape
    h = hashlib.sha256(f"{n_modes}x{q}".encode())
    for row in sign_rows(result):
        h.update(row)
    return h.hexdigest()


@pytest.fixture(scope="module")
def y1():
    return yeast_1_small()


@pytest.fixture(scope="module")
def y1_efms(y1):
    return compute_efms(y1)


class TestYeast1Pipeline:
    def test_count_stable(self, y1_efms):
        """530 modes for this variant — a regression anchor for the whole
        pipeline (compression, splitting, enumeration, folding)."""
        assert y1_efms.n_efms == 530

    def test_steady_state_and_signs(self, y1, y1_efms):
        n = stoichiometric_matrix(y1)
        assert np.allclose(n @ y1_efms.fluxes.T, 0.0, atol=1e-6)
        irr = ~np.array(y1.reversibility)
        assert (y1_efms.fluxes[:, irr] >= -1e-9).all()

    def test_minimality(self, y1_efms):
        y1_efms.validate()  # includes the O(n^2) support check

    def test_parallel_and_dnc_agree(self, y1, y1_efms):
        parallel = compute_efms(y1, method="parallel", n_ranks=4)
        dnc = compute_efms(y1, method="combined", partition=("R13r", "R32r"))
        assert y1_efms.same_modes_as(parallel)
        assert y1_efms.same_modes_as(dnc)

    def test_distributed_agrees(self, y1, y1_efms):
        distributed = compute_efms(y1, method="distributed", n_ranks=4)
        assert y1_efms.same_modes_as(distributed)

    def test_biology_ppp_knockout_is_growth_lethal(self, y1, y1_efms):
        """The small variant deletes the pentose-phosphate pathway; the
        biomass reaction R70 requires R5P and E4P, which only the PPP can
        make — so compression proves R70 blocked and no growth mode
        exists.  (EFM-based lethality prediction, refs [4]-[7].)"""
        from repro.network.compression import compress_network

        assert y1_efms.with_active("R70").n_efms == 0
        assert "R70" in compress_network(y1).blocked

    def test_biology_ethanol_modes_consume_glucose(self, y1, y1_efms):
        """Every fermenting mode must consume glucose (R62 is the only
        carbon source of this variant)."""
        ferment = y1_efms.with_active("R66")
        assert ferment.n_efms > 0
        j62 = y1.reaction_index("R62")
        assert (np.abs(ferment.fluxes[:, j62]) > 1e-9).all()

    def test_biology_ethanol_yield_bounded(self, y1, y1_efms):
        y = analysis.yields(y1_efms, "R66", "R62")
        assert np.nanmax(y) <= 2.0 + 1e-9  # 2 ethanol per glucose, hard cap

    def test_biology_co2_balance(self, y1, y1_efms):
        """Respiring modes (TCA flux through R24) must release CO2."""
        respiring = y1_efms.with_active("R24")
        if respiring.n_efms:
            j69 = y1.reaction_index("R69")
            assert (respiring.fluxes[:, j69] > -1e-9).all()

    def test_knockout_closure_at_scale(self, y1, y1_efms):
        survivors = analysis.knockout(y1_efms, ["R38"])
        recomputed = compute_efms(y1.without_reactions(["R38"]))
        kept = [
            y1.reaction_index(n) for n in recomputed.network.reaction_names
        ]
        from tests.conftest import assert_same_modes

        assert_same_modes(survivors.fluxes[:, kept], recomputed.fluxes)


class TestYeast2Pipeline:
    def test_count_stable(self):
        assert compute_efms(yeast_2_small()).n_efms == 7331

    def test_digest_pinned_across_rank_engines(self):
        """The exact modular rank kernel and the per-candidate SVD loop
        oracle return the same EFM set, row for row, and it is the pinned
        one."""
        net = yeast_2_small()
        runs = {
            engine: solve_with(engine, compute_efms, net)
            for engine in ("modular", "loop")
        }
        assert sign_rows(runs["modular"]) == sign_rows(runs["loop"])
        assert efm_digest(runs["modular"]) == Y2_DIGEST
        assert efm_digest(runs["loop"]) == Y2_DIGEST

    def test_oxphos_modes_consume_oxygen(self):
        """Network II's NADH-driven oxidative phosphorylation (R56)
        requires O2 import (R68) — Figure 5's whole point."""
        net = yeast_2_small()
        result = compute_efms(net)
        j68 = net.reaction_index("R68")
        oxphos = result.with_active("R56")
        assert oxphos.n_efms > 0
        assert (np.abs(oxphos.fluxes[:, j68]) > 1e-9).all()

    def test_fadh_branch_structurally_dead(self):
        """Figures 3-5 give cytosolic FADH no producer (only R27 and R57
        consume it), so the FADH oxidative-phosphorylation branch can
        never run — a documented quirk of the transcribed model."""
        net = yeast_2_small()
        result = compute_efms(net)
        assert result.with_active("R57").n_efms == 0
        assert result.with_active("R27").n_efms == 0

    def test_network2_has_more_modes_than_network1(self):
        """Figure 5's additions multiply the mode count (paper: 1.5M ->
        49.8M); the constrained variants preserve the direction."""
        n1 = compute_efms(yeast_1_small()).n_efms
        n2 = compute_efms(yeast_2_small()).n_efms
        assert n2 > n1
