"""Property tests of the substrates: bitsets, rational kernel, compression."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis import assume
from hypothesis.extra import numpy as hnp

from repro.linalg import bitset
from repro.linalg.numeric import kernel_identity_form
from repro.models.generators import random_network
from repro.network.compression import compress_network
from repro.network.stoichiometry import stoichiometric_matrix
from tests.core.adjacency_oracle import subset_count_rows
from tests.linalg import rational_oracle as rational

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


masks = hnp.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 150), st.integers(0, 20)),
    elements=st.booleans(),
)


@given(mask=masks)
@settings(**SETTINGS)
def test_bitset_pack_roundtrip(mask):
    words = bitset.pack_supports(mask)
    assert np.array_equal(bitset.unpack_supports(words, mask.shape[0]), mask)


@given(mask=masks)
@settings(**SETTINGS)
def test_bitset_popcount_matches_sum(mask):
    words = bitset.pack_supports(mask)
    assert np.array_equal(bitset.popcount(words), mask.sum(axis=0))


@given(mask=masks)
@settings(**SETTINGS)
def test_bitset_subset_reflexive_and_consistent(mask):
    assume(mask.shape[1] >= 1)
    words = bitset.pack_supports(mask)
    # Every row is a subset of itself.
    assert bitset.subset_rows(words, words).all()
    # subset_count >= 1 (self) always.
    assert (subset_count_rows(words, words) >= 1).all()


@given(mask=masks)
@settings(**SETTINGS)
def test_bitset_unique_is_set(mask):
    words = bitset.pack_supports(mask)
    uniq, first = bitset.unique_rows(words)
    assert uniq.shape[0] == np.unique(words, axis=0).shape[0]
    assert np.array_equal(uniq, words[first])


int_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 8)),
    elements=st.integers(-4, 4),
)


@given(a=int_matrices)
@settings(**SETTINGS)
def test_exact_nullspace_annihilates_and_spans(a):
    fm = rational.to_fraction_matrix(a.tolist())
    basis = rational.exact_nullspace(fm)
    assert rational.is_zero_matrix(rational.fraction_matmul(fm, basis))
    n_cols = len(basis[0]) if basis else 0
    assert n_cols == a.shape[1] - rational.exact_rank(fm)


@given(a=int_matrices)
@settings(**SETTINGS)
def test_kernel_identity_form_properties(a):
    assume(np.linalg.matrix_rank(a.astype(float)) < a.shape[1])
    kernel, perm = kernel_identity_form(a.astype(float))
    assert sorted(perm.tolist()) == list(range(a.shape[1]))
    assert np.allclose(a.astype(float)[:, perm] @ kernel, 0.0, atol=1e-6)
    n_free = kernel.shape[1]
    top = kernel[:n_free]
    assert np.allclose(top - np.diag(np.diag(top)), 0.0)


network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 7),
        "n_reactions": st.integers(6, 12),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3, 0.6]),
    }
)


@given(params=network_params)
@settings(**SETTINGS)
def test_compression_preserves_nullspace_dimension_structure(params):
    """Compression must not create or destroy steady-state degrees of
    freedom beyond what it extracts (blocked reactions and singletons)."""
    net = random_network(**params)
    rec = compress_network(net)
    n_orig = stoichiometric_matrix(net)
    dim_orig = n_orig.shape[1] - np.linalg.matrix_rank(n_orig)
    if rec.reduced.n_reactions:
        n_red = stoichiometric_matrix(rec.reduced)
        dim_red = n_red.shape[1] - np.linalg.matrix_rank(n_red)
    else:
        dim_red = 0
    # Every reduced DOF plus every extracted singleton came from an
    # original DOF.  Blocking may legitimately remove linear DOFs (a
    # direction the sign constraints kill), so equality holds only when
    # nothing was blocked.
    assert dim_red + len(rec.singletons) <= dim_orig
    if not rec.blocked:
        assert dim_red + len(rec.singletons) == dim_orig


@given(params=network_params)
@settings(**SETTINGS)
def test_compression_expansion_maps_into_original_nullspace(params):
    net = random_network(**params)
    rec = compress_network(net)
    if rec.reduced.n_reactions == 0:
        return
    rng = np.random.default_rng(0)
    n_red = stoichiometric_matrix(rec.reduced)
    n_orig = stoichiometric_matrix(net)
    # Random reduced steady-state vectors expand to original ones.
    from scipy.linalg import null_space

    basis = null_space(n_red)
    if basis.shape[1] == 0:
        return
    v = basis @ rng.normal(size=(basis.shape[1], 3))
    full = rec.expand_fluxes(v)
    assert np.allclose(n_orig @ full, 0.0, atol=1e-7)


@given(params=network_params)
@settings(**SETTINGS)
def test_blocked_reactions_really_blocked(params):
    """Every reaction compression declares blocked carries zero flux in
    every steady-state solution of the original network, and so does
    every reaction the divide-and-conquer screen
    (:func:`repro.dnc.combined.screen_blocked`) blocks in the compressed
    network."""
    from repro.dnc.combined import parent_kernel, screen_blocked

    net = random_network(**params)
    rec = compress_network(net)
    reduced = rec.reduced
    screened = (
        screen_blocked(parent_kernel(reduced), ()) if reduced.n_reactions else ()
    )
    if not rec.blocked and not screened:
        return
    # Blocked means: zero in the nullspace? No — blocked under SIGN
    # constraints.  Verify via the EFM set instead: no mode uses them.
    from repro.efm.api import compute_efms
    from repro.errors import AlgorithmError

    try:
        result = compute_efms(net)
    except AlgorithmError:
        return  # trivial nullspace: no modes at all, vacuously blocked
    for name in rec.blocked:
        j = net.reaction_index(name)
        if result.n_efms:
            assert np.abs(result.fluxes[:, j]).max() <= 1e-9
    if screened:
        modes = compute_efms(reduced, compress=False)
        for name in screened:
            j = reduced.reaction_index(name)
            if modes.n_efms:
                assert np.abs(modes.fluxes[:, j]).max() <= 1e-9
