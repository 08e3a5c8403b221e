"""Exact integer mode rows: the Fraction oracle, the int64 envelope's
switch to Python ints, and the certification of every emitted mode.

The program carries modes as coprime integer rows
(:mod:`repro.core.state`).  These tests pin that representation against
the Fraction-row oracle of :mod:`tests.core.fraction_oracle` on a real
network, force the switch to Python ints with a column scaled by the
float pi, and check that :func:`repro.core.kernel.certify_modes` refuses
a tampered mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import certify_modes
from repro.core.serial import nullspace_algorithm
from repro.core.state import ModeMatrix
from repro.efm import api
from repro.efm.api import build_problem_with_split, compute_efms
from repro.errors import AlgorithmError
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network
from tests.core.fraction_oracle import (
    oriented_rows,
    fraction_modes,
    solve_with_fraction_oracle,
)
from tests.core.test_ranktest_parity import _scaled_column


def _problem(net):
    problem, _ = build_problem_with_split(compress_network(net).reduced)
    return problem


class TestFractionOracle:
    def test_yeast_1_small_rows_equal_oracle_rows(self):
        problem = _problem(yeast_1_small())
        res = nullspace_algorithm(problem)
        assert res.modes.values.dtype == np.int64
        assert res.stats.total_int_switches == 0
        assert oriented_rows(
            res.modes.values.tolist(), problem.reversible
        ) == oriented_rows(fraction_modes(problem), problem.reversible)


class TestPythonIntSwitch:
    """The float pi reads as a rational over 2**48, so the kernel's
    entries reach ~1e16 and the first combination would leave int64."""

    @pytest.fixture(scope="class")
    def net(self):
        return _scaled_column(yeast_1_small(), "R26", np.pi)

    @pytest.fixture(scope="class")
    def oracle(self, net):
        return solve_with_fraction_oracle(compute_efms, net)

    def test_switch_counted_and_rows_equal_oracle(self, net):
        problem = _problem(net)
        # Pairing two kernel columns already leaves int64.
        assert 2 * int(np.abs(problem.kernel).max()) ** 2 >= 2**63
        res = nullspace_algorithm(problem)
        assert res.stats.total_int_switches >= 1
        assert res.modes.values.dtype == object
        assert oriented_rows(
            res.modes.values.tolist(), problem.reversible
        ) == oriented_rows(fraction_modes(problem), problem.reversible)

    def test_switch_is_logged(self, net, caplog):
        import logging

        from repro.core import iterstream

        with caplog.at_level(logging.INFO, logger=iterstream.__name__):
            compute_efms(net)
        assert any("Python ints" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"method": "parallel", "n_ranks": 2},
            {"method": "combined", "partition": 3},
        ],
        ids=["serial", "parallel", "combined"],
    )
    def test_fluxes_equal_oracle(self, net, oracle, kw):
        result = compute_efms(net, **kw)
        assert result.n_efms == 530
        assert result.meta["certified"] == 530
        assert result.same_modes_as(oracle)
        if not kw:
            assert result.stats.total_int_switches >= 1
            assert np.array_equal(result.fluxes, oracle.fluxes)


class TestCertification:
    def test_every_method_certifies_every_mode(self, toy):
        for kw in (
            {},
            {"method": "parallel", "n_ranks": 2},
            {"method": "distributed", "n_ranks": 2},
            {"method": "combined", "partition": ("r6r", "r8r")},
        ):
            result = compute_efms(toy, **kw)
            assert result.meta["certified"] == result.n_efms == 8, kw

    def test_tampered_mode_raises(self, toy_problem):
        values = nullspace_algorithm(toy_problem).modes.values.copy()
        assert certify_modes(toy_problem, ModeMatrix(values)) == values.shape[0]
        j = int(np.flatnonzero(values[3])[0])
        values[3, j] += 1
        with pytest.raises(AlgorithmError, match="mode 3 .* not a steady state"):
            certify_modes(toy_problem, ModeMatrix(values))

    def test_negative_irreversible_flux_raises(self, toy_problem):
        values = nullspace_algorithm(toy_problem).modes.values.copy()
        irreversible = ~toy_problem.reversible
        i = int(np.flatnonzero((values[:, irreversible] > 0).any(axis=1))[0])
        values[i] = -values[i]
        with pytest.raises(AlgorithmError, match=f"mode {i} .* negative"):
            certify_modes(toy_problem, ModeMatrix(values))

    def test_python_int_rows_certified(self, toy_problem):
        # Rows past int64 take the Python-int sums.  (ModeMatrix.from_parts
        # keeps the common factor the constructor would divide out.)
        modes = nullspace_algorithm(toy_problem).modes
        big = modes.values.astype(object) * (2**70 + 1)
        assert certify_modes(
            toy_problem, ModeMatrix.from_parts(big, modes.supports)
        ) == modes.n_modes
        big[0, int(np.flatnonzero(big[0])[0])] += 1
        with pytest.raises(AlgorithmError, match="mode 0"):
            certify_modes(toy_problem, ModeMatrix.from_parts(big, modes.supports))

    def test_compute_efms_refuses_a_tampered_run(self, toy, monkeypatch):
        real = api.nullspace_algorithm

        def tampered(problem, **kw):
            res = real(problem, **kw)
            res.modes.values[0, int(np.flatnonzero(res.modes.values[0])[0])] += 1
            return res

        monkeypatch.setattr(api, "nullspace_algorithm", tampered)
        with pytest.raises(AlgorithmError, match="certification failed"):
            compute_efms(toy)

    def test_resumed_subsets_keep_their_count(self, toy, tmp_path):
        kw = dict(method="combined", partition=("r6r", "r8r"),
                  checkpoint_path=tmp_path / "ckpt")
        first = compute_efms(toy, **kw)
        again = compute_efms(toy, **kw)
        assert again.meta["scheduler"]["n_resumed"] == 4
        assert again.meta["certified"] == first.meta["certified"] == 8
