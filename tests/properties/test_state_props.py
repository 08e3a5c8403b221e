"""Property tests for ModeMatrix algebra and checkpoint round-trips."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.state import ModeMatrix

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(0, 12), st.integers(1, 10)),
    elements=st.integers(-50, 50),
)


@given(a=matrices)
@settings(**SETTINGS)
def test_normalization_idempotent(a):
    m1 = ModeMatrix(a)
    m2 = ModeMatrix(m1.values)
    assert np.array_equal(m1.values, m2.values)


@given(a=matrices)
@settings(**SETTINGS)
def test_dedup_idempotent(a):
    m = ModeMatrix(a).dedup()
    assert m.dedup().n_modes == m.n_modes


@given(a=matrices)
@settings(**SETTINGS)
def test_dedup_supports_unique(a):
    m = ModeMatrix(a).dedup()
    words = m.supports.words
    assert np.unique(words, axis=0).shape[0] == words.shape[0]


@given(a=matrices, b=matrices)
@settings(**SETTINGS)
def test_concat_counts_add(a, b):
    # Align widths: crop to the smaller q.
    q = min(a.shape[1], b.shape[1])
    ma = ModeMatrix(a[:, :q])
    mb = ModeMatrix(b[:, :q])
    assert ma.concat(mb).n_modes == ma.n_modes + mb.n_modes


@given(a=matrices)
@settings(**SETTINGS)
def test_select_all_is_identity(a):
    m = ModeMatrix(a)
    sel = m.select(np.arange(m.n_modes))
    assert np.array_equal(sel.values, m.values)
    assert np.array_equal(sel.supports.words, m.supports.words)


@given(a=matrices)
@settings(**SETTINGS)
def test_supports_match_values_always(a):
    m = ModeMatrix(a)
    assert np.array_equal(m.supports.to_bool().T, m.values != 0)


@given(a=matrices)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_from_parts_roundtrip_through_serialization(a, tmp_path_factory):
    """What checkpointing relies on: values + words reconstruct the same
    matrix byte-for-byte through an npz file."""
    import io as _io

    from repro.linalg.bitset import PackedSupports

    m = ModeMatrix(a)
    buf = _io.BytesIO()
    np.savez(buf, values=m.values, words=m.supports.words,
             n_rows=np.int64(m.q))
    buf.seek(0)
    with np.load(buf) as data:
        back = ModeMatrix.from_parts(
            np.ascontiguousarray(data["values"]),
            PackedSupports(data["words"], int(data["n_rows"])),
        )
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.supports.words, m.supports.words)
