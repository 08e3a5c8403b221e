"""Wire-protocol parity: typed codec vs legacy pickle.

The wire protocol is pure transport — it must never change a single bit
of any result.  This suite asserts (1) collective/point-to-point results
are bit-identical across ``wire_protocol`` in {typed, pickle} on every
backend, and (2) final EFM sets are bit-identical across protocols and
backends, for both candidate representations on the wire, with the
yeast-I-small 530-EFM pin as the slow acceptance property.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.mpi.spmd import run_spmd
from repro.models.generators import random_network
from repro.models.variants import yeast_1_small
from tests.core.batch_oracle import run_whole_set

BACKENDS = ("sequential", "thread", "process")
PROTOCOLS = ("typed", "pickle")


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
def test_collectives_identical_across_protocols(backend):
    per_protocol = {
        proto: _canon(
            run_spmd(_job_collectives, 3, backend=backend, wire_protocol=proto)
        )
        for proto in PROTOCOLS
    }
    assert per_protocol["typed"] == per_protocol["pickle"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pipeline", ("deferred", "eager"))
def test_efms_identical_across_protocols(monkeypatch, backend, pipeline):
    """``"deferred"`` ships the streamed phase's support-only batches;
    ``"eager"`` ships dense float rows, which only the whole-set oracle
    still produces (the process backend forks, so workers inherit it)."""
    net = random_network(
        n_metabolites=5, n_reactions=10, seed=42, reversible_fraction=0.3
    )

    def run(proto):
        kw = dict(
            method="parallel",
            n_ranks=2,
            backend=backend,
            options=AlgorithmOptions(wire_protocol=proto),
        )
        if pipeline == "eager":
            return run_whole_set(monkeypatch, "eager", compute_efms, net, **kw)
        return compute_efms(net, **kw)

    runs = {proto: run(proto) for proto in PROTOCOLS}
    assert runs["typed"].n_efms == runs["pickle"].n_efms
    assert np.array_equal(runs["typed"].fluxes, runs["pickle"].fluxes)


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_distributed_efms_identical_across_protocols(proto):
    net = random_network(n_metabolites=4, n_reactions=9, seed=11)
    ref = compute_efms(net)
    run = compute_efms(
        net,
        method="distributed",
        n_ranks=3,
        options=AlgorithmOptions(wire_protocol=proto),
    )
    assert run.n_efms == ref.n_efms


def test_wire_stats_populated_typed():
    net = random_network(n_metabolites=5, n_reactions=10, seed=7)
    run = compute_efms(
        net,
        method="parallel",
        n_ranks=2,
        options=AlgorithmOptions(wire_protocol="typed"),
    )
    assert run.stats is not None
    assert run.stats.n_serializations > 0
    assert run.stats.ser_bytes > 0
    assert run.stats.wire_bytes_sent > 0


def test_typed_serializes_less_than_pickle():
    """Same run, same logical payloads: the typed frames are tighter and
    (on fan-out transports) produced fewer times."""
    net = random_network(n_metabolites=5, n_reactions=10, seed=3)
    per = {
        proto: compute_efms(
            net,
            method="parallel",
            n_ranks=4,
            backend="process",
            options=AlgorithmOptions(wire_protocol=proto),
        ).stats
        for proto in PROTOCOLS
    }
    assert per["typed"].ser_bytes < per["pickle"].ser_bytes


@pytest.mark.slow
def test_yeast_small_wire_parity_property():
    """Acceptance property: yeast-I-small — typed and pickle produce
    bit-identical EFM sets (530) across backends."""
    net = yeast_1_small()
    ref = None
    for proto in PROTOCOLS:
        for backend, n_ranks in (("sequential", 4), ("thread", 2), ("process", 2)):
            run = compute_efms(
                net,
                method="parallel",
                n_ranks=n_ranks,
                backend=backend,
                options=AlgorithmOptions(wire_protocol=proto),
            )
            assert run.n_efms == 530, (proto, backend)
            if ref is None:
                ref = run.fluxes
            else:
                assert np.array_equal(run.fluxes, ref), (proto, backend)
