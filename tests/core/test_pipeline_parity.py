"""Dense-row vs support-first candidate representation parity.

Runs carry candidates as support-only
:class:`~repro.core.state.CandidateBatch` objects (packed supports plus
pair indices; dense rows are rebuilt for accepted candidates only).  That
must be an exact refactoring of carrying every candidate as a dense
integer row formed at generation: identical supports out of generation,
identical survivors out of dedup + rank test, and identical reduced rows
after materialization.  The dense-row ("eager") reference is the
whole-set oracle of :mod:`tests.core.batch_oracle` with
``deferred=False``.  The fast tests pin the cancelling case — a
combination that zeroes entries *beyond* the annihilated row — and full
toy runs on every driver;
the slow property extends the pin to yeast-I-small, serial +
combinatorial (P in {2, 4}) + combined (q_sub = 5).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.candidates import full_range
from repro.core.serial import nullspace_algorithm
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats
from repro.efm.api import compute_efms
from repro.linalg import bitset
from repro.models.variants import yeast_1_small
from repro.parallel.combinatorial import combinatorial_parallel
from tests.core.batch_oracle import generate_candidates, use_batch_oracle

OPTS = AlgorithmOptions()


@pytest.fixture
def eager(monkeypatch):
    """``eager(fn, *args, **kw)`` runs ``fn`` with every driver carrying
    dense candidate rows formed at generation (the whole-set oracle,
    ``deferred=False``)."""

    def run(fn, *args, **kw):
        with monkeypatch.context() as m:
            use_batch_oracle(m, deferred=False)
            return fn(*args, **kw)

    return run


def _stats():
    return IterationStats(position=0, reaction="x", reversible=False)


class TestCancellationParity:
    """A combination can zero entries beyond the annihilated row; the
    deferred supports must reflect the exact cancellation, not the
    pair's support union."""

    def test_support_strictly_smaller_than_union_minus_row(self):
        # mode0 + mode1 cancels column 2 in addition to the paired row 0.
        modes = ModeMatrix(
            np.array(
                [
                    [1, 1, 1, 0],
                    [-1, 1, -1, 0],
                ]
            )
        )
        out = {}
        for name in ("eager", "deferred"):
            cand = generate_candidates(
                modes, 0, np.array([0]), np.array([1]), full_range(1),
                rank_bound=4, options=OPTS, stats=_stats(),
                deferred=name == "deferred",
            )
            assert cand.n_modes == 1
            out[name] = cand
        batch = out["deferred"]
        assert isinstance(batch, CandidateBatch)
        union = modes.supports.words[0] | modes.supports.words[1]
        union_minus_k = int(bitset.popcount(union[None, :])[0]) - 1
        support_size = int(bitset.popcount(batch.supports.words)[0])
        # {1} is strictly inside (union minus row 0) = {1, 2}.
        assert support_size < union_minus_k
        assert np.array_equal(batch.supports.words, out["eager"].supports.words)
        dense = batch.materialize(modes.values)
        assert np.array_equal(dense.values, out["eager"].dense.values)
        assert np.array_equal(
            dense.supports.words, out["eager"].dense.supports.words
        )


class TestToyFullRunParity:
    def test_serial(self, toy_problem, eager):
        a = eager(nullspace_algorithm, toy_problem, options=OPTS)
        b = nullspace_algorithm(toy_problem, options=OPTS)
        assert np.array_equal(a.efms_input_order(), b.efms_input_order())

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_combinatorial(self, toy_problem, eager, n_ranks):
        a = eager(combinatorial_parallel, toy_problem, n_ranks, options=OPTS)
        b = combinatorial_parallel(toy_problem, n_ranks, options=OPTS)
        assert np.array_equal(
            a.result.efms_input_order(), b.result.efms_input_order()
        )

    def test_distributed(self, toy_problem, eager):
        a = eager(
            combinatorial_parallel, toy_problem, 2, options=OPTS, sharded=True
        )
        b = combinatorial_parallel(toy_problem, 2, options=OPTS, sharded=True)
        assert np.array_equal(
            a.result.efms_input_order(), b.result.efms_input_order()
        )



@pytest.mark.slow
def test_yeast_small_pipeline_parity_property(eager):
    """Acceptance property: yeast-I-small, serial + combinatorial
    (P in {2, 4}) + combined (q_sub = 5) — dense-row and support-first
    candidates produce bit-identical EFM sets on every driver."""
    net = yeast_1_small()

    def runs():
        return [
            compute_efms(net, options=OPTS),
            compute_efms(net, method="parallel", n_ranks=2, options=OPTS),
            compute_efms(net, method="parallel", n_ranks=4, options=OPTS),
            compute_efms(net, method="combined", partition=5, options=OPTS),
        ]

    dense = eager(runs)
    deferred = runs()
    for label, a, b in zip(
        ("serial", "parallel-2", "parallel-4", "combined-5"), dense, deferred
    ):
        assert a.n_efms == b.n_efms, label
        assert np.array_equal(a.fluxes, b.fluxes), (
            f"{label}: dense-row and support-first EFM sets differ"
        )
    assert deferred[0].n_efms == 530
