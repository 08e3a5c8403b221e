"""Transport parity: the parallel drivers give the same bits on every
backend.

The transport must never change a single bit of any result.  This suite
asserts (1) collective/point-to-point results are identical on every
backend, and (2) final EFM sets are bit-identical across backends, for
both candidate representations on the wire, with the yeast-I-small
530-EFM pin as the slow acceptance property.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.efm.api import compute_efms
from repro.mpi.spmd import run_spmd
from repro.models.generators import random_network
from repro.models.variants import yeast_1_small
from tests.core.batch_oracle import run_whole_set

BACKENDS = ("sequential", "thread", "process")


def _job_collectives(comm):
    """Exercise allgather / bcast / send+recv with mixed payloads."""
    arr = (np.arange(50, dtype=np.float64) + 1) * (comm.rank + 1)
    words = np.full((3, 2), comm.rank, dtype=np.uint64)
    g = comm.allgather((words, arr, comm.rank, f"r{comm.rank}"))
    b = comm.bcast(arr * 2 if comm.rank == 1 else None, root=1)
    comm.send(arr[:5], (comm.rank + 1) % comm.size, tag=3)
    p2p = comm.recv((comm.rank - 1) % comm.size, tag=3)
    return (
        [(np.asarray(w).copy(), np.asarray(a).copy(), r, s) for w, a, r, s in g],
        np.asarray(b).copy(),
        np.asarray(p2p).copy(),
    )


def _canon(outs):
    """Backend-independent structural form for comparison."""
    canon = []
    for g, b, p2p in outs:
        canon.append(
            (
                [(w.tolist(), a.tolist(), r, s) for w, a, r, s in g],
                b.tolist(),
                p2p.tolist(),
            )
        )
    return canon


@pytest.mark.parametrize("backend", BACKENDS)
def test_collectives_identical_across_backends(backend):
    reference = _canon(run_spmd(_job_collectives, 3, backend="sequential"))
    assert _canon(run_spmd(_job_collectives, 3, backend=backend)) == reference


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pipeline", ("deferred", "eager"))
def test_efms_identical_across_backends(monkeypatch, backend, pipeline):
    """``"deferred"`` ships the streamed phase's support-only batches;
    ``"eager"`` ships dense float rows, which only the whole-set oracle
    still produces (the process backend forks, so workers inherit it)."""
    net = random_network(
        n_metabolites=5, n_reactions=10, seed=42, reversible_fraction=0.3
    )

    def run(on):
        kw = dict(method="parallel", n_ranks=2, backend=on)
        if pipeline == "eager":
            return run_whole_set(monkeypatch, "eager", compute_efms, net, **kw)
        return compute_efms(net, **kw)

    ref, got = run("sequential"), run(backend)
    assert got.n_efms == ref.n_efms
    assert np.array_equal(got.fluxes, ref.fluxes)


def test_distributed_efms_match_serial():
    net = random_network(n_metabolites=4, n_reactions=9, seed=11)
    ref = compute_efms(net)
    run = compute_efms(net, method="distributed", n_ranks=3)
    assert run.n_efms == ref.n_efms


def test_wire_stats_populated():
    net = random_network(n_metabolites=5, n_reactions=10, seed=7)
    run = compute_efms(net, method="parallel", n_ranks=2)
    assert run.stats is not None
    assert run.stats.n_serializations > 0
    assert run.stats.ser_bytes > 0
    assert run.stats.wire_bytes_sent > 0


@pytest.mark.slow
def test_yeast_small_wire_parity_property():
    """Acceptance property: yeast-I-small gives bit-identical EFM sets
    (530) on every backend."""
    net = yeast_1_small()
    ref = None
    for backend, n_ranks in (("sequential", 4), ("thread", 2), ("process", 2)):
        run = compute_efms(
            net, method="parallel", n_ranks=n_ranks, backend=backend
        )
        assert run.n_efms == 530, backend
        if ref is None:
            ref = run.fluxes
        else:
            assert np.array_equal(run.fluxes, ref), backend
