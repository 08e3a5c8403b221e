"""Property tests of Proposition 1 — the paper's theoretical core.

"If the Nullspace Algorithm is stopped at its (q - q')th iteration, then
the set of elementary flux modes with all the last q' reactions having
non-zero flux values coincides with the set of columns in the current
nullspace matrix having non-zero flux values in the last q' elements."
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.memory import MemoryModel
from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm
from repro.dnc.combined import combined_parallel
from repro.efm.api import compute_efms
from repro.efm.targeted import efms_through
from repro.errors import PartitionError, ReproError
from repro.models.generators import random_network
from repro.network.compression import compress_network
from tests.conftest import assert_same_modes, canonical_rows

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 10),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3]),
    }
)


@given(params=network_params)
@settings(**SETTINGS)
def test_stop_early_nonzero_tail_equals_filtered_full(params):
    """Literal Proposition 1 on the prepared problem: stop one row early;
    the stopped matrix's columns with non-zero last entry equal the full
    run's EFMs with non-zero last entry."""
    net = random_network(**params)
    rec = compress_network(net)
    if rec.reduced.n_reactions < 3:
        return
    try:
        problem = build_problem(rec.reduced)
    except ReproError:
        return  # needs splitting; covered by the query-level test below
    if problem.reversible[problem.q - 1] == False:  # noqa: E712
        # For an irreversible last row Proposition 1 needs the sign
        # filter; restrict the literal test to the reversible case and
        # let the query-level test cover the rest.
        return
    partial = nullspace_algorithm(problem, stop_row=problem.q - 1)
    full = nullspace_algorithm(problem)
    last = problem.q - 1
    stopped = partial.modes.values[partial.modes.values[:, last] != 0.0]
    finished = full.modes.values[full.modes.values[:, last] != 0.0]
    a = canonical_rows(stopped)
    b = canonical_rows(finished)
    assert a.shape == b.shape and np.allclose(a, b, atol=1e-7)


@given(params=network_params, data=st.data())
@settings(**SETTINGS)
def test_targeted_queries_equal_filters(params, data):
    """Query-level Proposition 1: through/avoiding answers equal filtering
    the full EFM set, for any target reaction."""
    net = random_network(**params)
    full = compute_efms(net)
    target = data.draw(st.sampled_from(list(net.reaction_names)))
    from repro.efm.targeted import efms_avoiding

    through = efms_through(net, target)
    avoiding = efms_avoiding(net, target)
    assert_same_modes(through.fluxes, full.with_active(target).fluxes)
    assert_same_modes(avoiding.fluxes, full.without_active(target).fluxes)
    assert through.n_efms + avoiding.n_efms == full.n_efms


@given(params=network_params)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_refinement_preserves_efm_set(params):
    """Under an artificially tight memory model, the scheduler's
    refinement must still produce exactly the full EFM set (or report failure, never a
    wrong set)."""
    net = random_network(**params)
    rec = compress_network(net)
    if rec.reduced.n_reactions < 4:
        return
    full = compute_efms(net)
    probe = MemoryModel(capacity_bytes=1, enforcing=False)
    try:
        problem = build_problem(rec.reduced)
        nullspace_algorithm(problem, memory_check=probe.check)
    except ReproError:
        return
    cap = max(64, int(probe.peak_bytes * 0.9))
    partition = rec.reduced.reaction_names[-1:]
    try:
        run = combined_parallel(
            rec.reduced, partition, 1, memory_model=MemoryModel(capacity_bytes=cap)
        )
    except PartitionError:
        return  # refinement ran out of reactions: a refusal
    if not run.complete:
        return  # refusal is acceptable; wrong answers are not
    reduced_efms = run.efms()
    expanded = rec.expand_fluxes(reduced_efms.T).T
    singles = rec.singleton_flux_matrix().T
    if singles.shape[0]:
        expanded = (
            np.concatenate([expanded, singles]) if expanded.size else singles
        )
    assert_same_modes(expanded, full.fluxes)
