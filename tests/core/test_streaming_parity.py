"""Streamed candidate phase vs the whole-set oracle.

The candidate phase (:func:`repro.core.iterstream.stream_iteration`) must
be an exact refactoring of the whole-set ``generate → dedup → rank-test``
body kept in :mod:`tests.core.batch_oracle`: bit-identical EFM sets on
every driver and any chunk size — chunking never
reorders the pair enumeration and dedup is keep-first (see the module
docstring's invariant).  The oracle is parametrized by its candidate
representation (support-only ``deferred`` batches or ``eager`` dense
rows formed at generation); the exact-arithmetic cases also check the
integer rows against the Fraction oracle of
:mod:`tests.core.fraction_oracle`.  Multi-chunk runs are forced by shrinking
:data:`repro.cluster.memory.DEFAULT_STREAM_CHUNK_BYTES`: the fast tests
use a budget tiny enough for one-pair chunks on the paper's toy network,
and the slow property extends the 530-EFM yeast-I-small pin to a
chunk-size sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import memory
from repro.config import AlgorithmOptions
from repro.core.serial import nullspace_algorithm
from repro.efm.api import compute_efms
from repro.models.variants import yeast_1_small, yeast_2_small
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from tests.conftest import assert_same_modes
from tests.core.batch_oracle import use_batch_oracle
from tests.core.fraction_oracle import (
    oriented_rows,
    fraction_modes,
    solve_with_fraction_oracle,
)
from tests.core.test_paper_example import EQ7_EFMS

#: A chunk budget (bytes) small enough that every toy iteration needs
#: several chunks.
TINY = 256

OPTS = AlgorithmOptions()


@pytest.fixture
def oracle(monkeypatch):
    """``oracle(fn, *args, representation=..., **kw)`` runs ``fn`` with the
    whole-set candidate phase patched into every driver."""

    def run(fn, *args, representation=None, **kw):
        deferred = representation != "eager"
        with monkeypatch.context() as m:
            use_batch_oracle(m, deferred=deferred)
            return fn(*args, **kw)

    return run


def _budget(monkeypatch, chunk):
    if chunk != "auto":
        monkeypatch.setattr(memory, "DEFAULT_STREAM_CHUNK_BYTES", chunk)


class TestToyStreamingParity:
    @pytest.mark.parametrize("representation", ["deferred", "eager"])
    @pytest.mark.parametrize("chunk", ["auto", TINY])
    def test_serial(self, toy_problem, oracle, monkeypatch, representation, chunk):
        ref = oracle(
            nullspace_algorithm, toy_problem, options=OPTS,
            representation=representation,
        )
        _budget(monkeypatch, chunk)
        got = nullspace_algorithm(toy_problem, options=OPTS)
        assert np.array_equal(ref.efms_input_order(), got.efms_input_order())

    @pytest.mark.parametrize("representation", ["deferred", "eager"])
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_combinatorial(
        self, toy_problem, oracle, monkeypatch, representation, n_ranks
    ):
        ref = oracle(
            combinatorial_parallel, toy_problem, n_ranks, options=OPTS,
            representation=representation,
        )
        _budget(monkeypatch, TINY)
        got = combinatorial_parallel(toy_problem, n_ranks, options=OPTS)
        assert np.array_equal(
            ref.result.efms_input_order(), got.result.efms_input_order()
        )

    @pytest.mark.parametrize("representation", ["deferred", "eager"])
    def test_distributed(self, toy_problem, oracle, monkeypatch, representation):
        ref = oracle(
            distributed_parallel, toy_problem, 3, options=OPTS,
            representation=representation,
        )
        _budget(monkeypatch, TINY)
        got = distributed_parallel(toy_problem, 3, options=OPTS)
        assert np.array_equal(ref.efms_input_order(), got.efms_input_order())

    @pytest.mark.parametrize("chunk", ["auto", TINY])
    def test_exact_arithmetic(self, toy_problem, oracle, monkeypatch, chunk):
        ref = oracle(nullspace_algorithm, toy_problem, options=OPTS)
        _budget(monkeypatch, chunk)
        got = nullspace_algorithm(toy_problem, options=OPTS)
        assert got.modes.values.dtype == np.int64
        assert np.array_equal(ref.modes.values, got.modes.values)
        assert oriented_rows(
            got.modes.values.tolist(), toy_problem.reversible
        ) == oriented_rows(fraction_modes(toy_problem), toy_problem.reversible)

    @pytest.mark.parametrize("n_ranks", [2, 3])
    @pytest.mark.parametrize("chunk", ["auto", TINY])
    def test_exact_combinatorial(
        self, toy_problem, oracle, monkeypatch, n_ranks, chunk
    ):
        # Some ranks accept nothing on most iterations; their empty parts
        # must still merge with the others' rows.
        ref = oracle(combinatorial_parallel, toy_problem, n_ranks, options=OPTS)
        serial = nullspace_algorithm(toy_problem, options=OPTS)
        _budget(monkeypatch, chunk)
        got = combinatorial_parallel(toy_problem, n_ranks, options=OPTS)
        assert np.array_equal(ref.result.modes.values, got.result.modes.values)
        assert_same_modes(got.result.efms_input_order(), serial.efms_input_order())
        assert oriented_rows(
            got.result.modes.values.tolist(), toy_problem.reversible
        ) == oriented_rows(fraction_modes(toy_problem), toy_problem.reversible)


class TestStreamingCounters:
    def test_tiny_budget_forces_multiple_chunks(
        self, toy_problem, oracle, monkeypatch
    ):
        batch = oracle(nullspace_algorithm, toy_problem, options=OPTS)
        _budget(monkeypatch, TINY)
        res = nullspace_algorithm(toy_problem, options=OPTS)
        assert res.stats.total_stream_chunks > len(res.stats.iterations)
        assert res.stats.total_dedup_probes > 0
        assert res.stats.peak_stream_chunk_bytes > 0
        # The tiny budget bounds every chunk's transient well below the
        # whole-set candidate peak.
        assert res.stats.peak_stream_chunk_bytes <= max(
            it.candidate_bytes for it in batch.stats.iterations
        )

    def test_batch_path_leaves_counters_zero(self, toy_problem, oracle):
        # The oracle really replaces the streamed phase (otherwise every
        # parity test above would compare the streamed phase to itself).
        res = oracle(nullspace_algorithm, toy_problem, options=OPTS)
        assert res.stats.total_stream_chunks == 0
        assert res.stats.total_dedup_probes == 0
        assert res.stats.peak_stream_chunk_bytes == 0

    def test_exact_arithmetic_streams(self, toy, monkeypatch):
        _budget(monkeypatch, TINY)
        res = compute_efms(toy, options=OPTS)
        assert res.stats.total_stream_chunks > len(res.stats.iterations)
        assert res.n_efms == 8
        assert_same_modes(res.fluxes, EQ7_EFMS)
        assert np.array_equal(
            res.fluxes, solve_with_fraction_oracle(compute_efms, toy).fluxes
        )


@pytest.mark.slow
def test_yeast_small_streaming_chunk_sweep(oracle, monkeypatch):
    """Acceptance property: yeast-I-small — at the default and two forced
    multi-chunk budgets, every driver reproduces the whole-set oracle's
    530-EFM set bit-identically."""
    net = yeast_1_small()

    def runs():
        return [
            compute_efms(net, options=OPTS),
            compute_efms(net, method="parallel", n_ranks=3, options=OPTS),
            compute_efms(net, method="combined", partition=5, options=OPTS),
        ]

    batch = oracle(runs)
    assert batch[0].n_efms == 530
    for chunk in ("auto", 64 << 10, 8 << 10):
        with monkeypatch.context() as m:
            _budget(m, chunk)
            streamed = runs()
        for label, a, b in zip(("serial", "parallel-3", "combined-5"), batch, streamed):
            assert a.n_efms == b.n_efms, (label, chunk)
            assert np.array_equal(a.fluxes, b.fluxes), (
                f"{label} with a {chunk} chunk budget: streamed EFM set "
                "differs from the whole-set oracle"
            )


def test_yeast2_counters_do_not_depend_on_the_chunk_budget(oracle, monkeypatch):
    """yeast-II-small serial at the default and two forced multi-chunk
    budgets: the same EFM set and, per iteration, the same duplicate,
    pre-screen and rank-test counts — dedup is exact, so no support is
    tested twice in one iteration whatever the chunking.  The whole-set
    oracle drops the same duplicates and, having no pre-screen, tests
    what the stream screens out or tests."""
    net = yeast_2_small()
    whole = oracle(compute_efms, net, options=OPTS)
    counts = ("n_prefilter_kept", "n_duplicates", "n_superset_rejected", "n_tested")
    runs = {}
    for chunk in ("auto", 1 << 20, 256 << 10):
        with monkeypatch.context() as m:
            _budget(m, chunk)
            res = compute_efms(net, options=OPTS)
        runs[chunk] = (
            res,
            [[getattr(it, c) for c in counts] for it in res.stats.iterations],
        )
    ref, ref_counts = runs["auto"]
    assert ref.n_efms == 7331
    assert ref.stats.total_rank_tests == 12836
    assert np.array_equal(whole.fluxes, ref.fluxes)
    assert [
        [it.n_prefilter_kept, it.n_duplicates, it.n_tested]
        for it in whole.stats.iterations
    ] == [[kept, dup, screened + tested] for kept, dup, screened, tested in ref_counts]
    for chunk in (1 << 20, 256 << 10):
        res, got = runs[chunk]
        assert res.stats.total_stream_chunks > ref.stats.total_stream_chunks
        assert np.array_equal(res.fluxes, ref.fluxes), chunk
        assert got == ref_counts, chunk
