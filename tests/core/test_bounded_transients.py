"""Parity of the paths that bound a solve's transient memory.

Each of them changes only when bytes are live, never a result: the
fold's keyed first-occurrence search against the exact sort, the finish
that expands and canonicalizes in place against
:meth:`~repro.efm.result.EFMResult.canonical` of the same rows, the
rank kernel's shape-sorted elimination blocks and the pre-screen's
chunks against one unbounded batch, and a split subset's identity form
read off its unsplit form against the one read off its split basis.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dnc import combined
from repro.efm import api, splitting
from repro.efm.api import compute_efms
from repro.efm.result import EFMResult
from repro.linalg import bitset, modular
from repro.linalg.modular import ModularProblem, int_kernel, modular_ranks
from repro.models.registry import get_network
from repro.network.compression import CompressionRecord

#: Budgets that put one candidate in every block and chunk (1, 3, 7
#: bytes), a few candidates, and everything at once.
BUDGETS = [1, 3, 7, 1 << 10, 1 << 14, 1 << 40]


def _first_occurrence_oracle(rows: np.ndarray) -> list[int]:
    seen: set[tuple] = set()
    first = []
    for i, row in enumerate(map(tuple, rows.tolist())):
        if row not in seen:
            seen.add(row)
            first.append(i)
    return first


class TestFirstOccurrences:
    """The fold's keyed search equals the sort-based one, collisions or
    not."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_rows_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(-5, 6, size=(int(rng.integers(1, 40)), 7))
        rows = base[rng.integers(0, base.shape[0], size=120)]
        got = splitting._first_occurrences(rows)
        assert got.tolist() == _first_occurrence_oracle(rows)
        assert got.tolist() == splitting._first_occurrences_sorted(rows).tolist()

    @pytest.mark.parametrize("multiplier", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_weak_keys_collide_and_fall_back(self, monkeypatch, multiplier, seed):
        # Multiplier 0 keys a row on its last entry, 1 on its sum: many
        # different rows share a key, so the exact path must decide.
        monkeypatch.setattr(splitting, "ROW_KEY_MULTIPLIER", multiplier)
        rng = np.random.default_rng(seed)
        rows = rng.integers(-3, 4, size=(200, 5))
        got = splitting._first_occurrences(rows)
        assert got.tolist() == _first_occurrence_oracle(rows)

    def test_forced_collision_at_the_real_multiplier(self, monkeypatch):
        # key([a, b]) = a * M + b mod 2**64, so [1, -M mod 2**64] keys as
        # [0, 0] does.
        x = (-splitting.ROW_KEY_MULTIPLIER) % 2**64
        assert x < 2**63
        rows = np.array([[0, 0], [1, x], [0, 0], [1, x], [2, 2]], dtype=np.int64)
        calls = []
        real = splitting._first_occurrences_sorted

        def spy(r):
            calls.append(r.shape)
            return real(r)

        monkeypatch.setattr(splitting, "_first_occurrences_sorted", spy)
        assert splitting._first_occurrences(rows).tolist() == [0, 1, 4]
        assert calls == [rows.shape]
        calls.clear()
        assert splitting._first_occurrences(rows[[0, 2, 4]]).tolist() == [0, 2]
        assert calls == []  # duplicates alone never take the exact path

    def test_empty_and_python_int_rows(self):
        assert splitting._first_occurrences(np.zeros((0, 3), np.int64)).size == 0
        rows = np.array([[2**70, 1], [1, 1], [2**70, 1]], dtype=object)
        assert splitting._first_occurrences(rows).tolist() == [0, 1]


def _finish_spies(monkeypatch):
    """Record what the finish expands and canonicalizes."""
    expanded, canonicalized = [], []
    real_expand = CompressionRecord.expand_fluxes
    real_canonical = EFMResult.canonical

    def expand(self, reduced_fluxes, *, out=None):
        got = real_expand(self, reduced_fluxes, out=out)
        expanded.append((self.expansion_array @ reduced_fluxes, got.copy()))
        return got

    def canonical(self, *, in_place=False):
        canonicalized.append(dataclasses.replace(self, fluxes=self.fluxes.copy()))
        return real_canonical(self, in_place=in_place)

    monkeypatch.setattr(CompressionRecord, "expand_fluxes", expand)
    monkeypatch.setattr(EFMResult, "canonical", canonical)
    return expanded, canonicalized


@pytest.mark.parametrize(
    "network, kwargs",
    [
        ("toy", {}),
        ("yeast-I-small", {}),
        ("yeast-I-small", dict(method="combined", partition=5)),
        ("yeast-I-small", dict(method="parallel", n_ranks=2)),
        ("yeast-II-small", {}),
    ],
    ids=["toy", "y1-serial", "y1-dnc5", "y1-par2", "y2-serial"],
)
def test_finish_is_canonical_of_the_same_rows_bit_for_bit(monkeypatch, network, kwargs):
    """The in-place finish returns what ``EFMResult.canonical()`` returns
    for the rows it was handed, byte for byte, and the expansion written
    into the row buffer is the product the copying expansion computes."""
    expanded, canonicalized = _finish_spies(monkeypatch)
    result = compute_efms(get_network(network), **kwargs)
    assert len(canonicalized) == 1
    unsorted = canonicalized[0]
    assert unsorted.fluxes.flags.c_contiguous
    want = unsorted.canonical().fluxes
    assert result.fluxes.dtype == want.dtype and result.fluxes.shape == want.shape
    assert result.fluxes.tobytes() == want.tobytes()
    assert len(expanded) == 1
    product, written = expanded[0]
    assert written.tobytes() == product.tobytes()
    n = written.shape[1]
    assert unsorted.fluxes[:n].tobytes() == np.ascontiguousarray(written.T).tobytes()


def test_finish_without_modes_keeps_singletons():
    """A network whose only EFMs are compression singletons: nothing is
    expanded, the singletons are the output."""
    from repro.network.model import MetabolicNetwork, Metabolite, Reaction

    net = MetabolicNetwork(
        "cycle",
        [Metabolite("A"), Metabolite("B")],
        [
            Reaction("f", {"A": -1, "B": 1}, reversible=False),
            Reaction("b", {"A": 1, "B": -1}, reversible=False),
        ],
    )
    result = compute_efms(net)
    assert result.n_efms == result.meta["certified"] == 1
    assert result.fluxes.tolist() == [[1.0, 1.0]]


def _random_basis_problem(rng, q=13, m=5):
    n_int = rng.integers(-1, 2, size=(m, q)) * (rng.random((m, q)) < 0.5)
    prob = ModularProblem(n_int.astype(float))
    return n_int, prob


class TestEliminationBlocks:
    """Blocked kernel ranks equal one unbounded batch's."""

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_arm(self, monkeypatch, budget, seed):
        rng = np.random.default_rng(seed)
        _, prob = _random_basis_problem(rng)
        comp = rng.random((90, prob.q)) < rng.random((90, 1))
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", 1 << 40)
        want = modular._unit_reduced_ranks(prob, comp)
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", budget)
        got = modular._unit_reduced_ranks(prob, comp)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("seed", range(3))
    def test_residue_arm(self, monkeypatch, budget, seed):
        rng = np.random.default_rng(seed)
        n_int, prob = _random_basis_problem(rng)
        sizes = rng.integers(1, prob.q, size=70)  # non-empty complements
        mask = np.zeros((70, prob.q), dtype=bool)
        for i, s in enumerate(sizes):
            mask[i, rng.choice(prob.q, s, replace=False)] = True
        idx_pad, _ = modular._padded_complements(mask, np.arange(70), sizes)
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", 1 << 40)
        want = modular._kernel_nullities(prob, idx_pad)
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", budget)
        got = modular._kernel_nullities(prob, idx_pad)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        ranks = [len(int_kernel(n_int[:, row].astype(object))[0]) for row in mask]
        settled = ~got[1]
        assert (sizes - got[0])[settled].tolist() == np.array(ranks)[settled].tolist()

    def test_blocks_partition_sorted_candidates_within_budget(self, monkeypatch):
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", 16 * 60)
        short = np.array([3, 1, 2, 9, 2, 1, 3, 2])
        long = np.array([4, 5, 3, 9, 2, 2, 3, 3])
        blocks = modular._elimination_blocks(short, long)
        flat = np.concatenate(blocks)
        assert sorted(flat.tolist()) == list(range(short.size))
        keys = list(zip(short[flat].tolist(), long[flat].tolist()))
        assert keys == sorted(keys)
        for b in blocks:
            assert b.size * short[b].max() * long[b].max() <= 60 or b.size == 1
        assert len(blocks) > 1
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", 16 * 8 * 81)
        assert [b.tolist() for b in modular._elimination_blocks(short, long)] == [
            list(range(8))
        ]

    @pytest.mark.parametrize("budget", [7, 1 << 12])
    def test_whole_solve_at_a_tiny_budget(self, monkeypatch, budget):
        """Every rank-test call and pre-screen of a solve, cut into blocks
        and chunks of one or a few candidates, gives the same EFMs and
        work counts as the default budget."""
        net = get_network("yeast-I-small")
        want = compute_efms(net)
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", budget)
        got = compute_efms(net)
        assert got.fluxes.tobytes() == want.fluxes.tobytes()
        counts = (
            "n_pairs", "n_prefilter_kept", "n_duplicates", "n_superset_rejected",
            "n_tested", "n_accepted", "n_rank_cache_hits",
        )
        assert [[getattr(it, c) for c in counts] for it in got.stats.iterations] == [
            [getattr(it, c) for c in counts] for it in want.stats.iterations
        ]

    def test_modular_ranks_match_on_a_real_batch(self, monkeypatch):
        """A yeast-II-small stoichiometry's ranks for random supports."""
        from repro.efm.api import build_problem_with_split
        from repro.network.compression import compress_network

        problem, _ = build_problem_with_split(
            compress_network(get_network("yeast-II-small")).reduced
        )
        rng = np.random.default_rng(5)
        q = problem.q
        mask = rng.random((q, 400)) < 0.75
        sizes = mask.sum(axis=0)
        want = modular_ranks(problem.n_perm, mask, sizes)
        monkeypatch.setattr(bitset, "TRANSIENT_BYTES", 3)
        assert modular_ranks(problem.n_perm, mask, sizes).tolist() == want.tolist()


def test_split_subsets_read_their_form_off_the_unsplit_one(monkeypatch):
    """Every split subset's problem taken from the unsplit identity form
    equals the one read off its split basis, on D&C runs of both yeast
    networks (yeast-I-small ``q_sub = 5`` is checked against the Fraction
    oracle in ``tests/linalg/test_kernel_parity.py``)."""
    checked = []
    real = combined.SubsetColumns.problem

    def both(self, options, force_last):
        got = real(self, options, force_last)
        if self.identity_form is not None:
            ref = real(dataclasses.replace(self, identity_form=None), options, force_last)
            assert np.array_equal(got.perm, ref.perm)
            assert got.kernel.dtype == ref.kernel.dtype
            assert got.kernel.tolist() == ref.kernel.tolist()
            assert (got.n_free, got.first_row, got.names) == (
                ref.n_free, ref.first_row, ref.names
            )
            checked.append(self.q)
        return got

    monkeypatch.setattr(combined.SubsetColumns, "problem", both)
    assert compute_efms(
        get_network("yeast-I-small"), method="combined", partition=3
    ).n_efms == 530
    assert compute_efms(
        get_network("yeast-II-small"), method="combined", partition=4
    ).n_efms == 7331
    assert len(checked) == 2 + 8


def test_other_ranks_return_no_mode_matrix(monkeypatch):
    """Algorithm 2's ranks other than 0 send back their statistics and
    support words only; rank 0's modes are the result."""
    from repro.parallel import combinatorial

    returned = []
    real = combinatorial.combinatorial_worker

    def spy(comm, *args, **kwargs):
        out = real(comm, *args, **kwargs)
        returned.append((comm.rank, type(out).__name__))
        return out

    monkeypatch.setattr(combinatorial, "combinatorial_worker", spy)
    result = compute_efms(get_network("yeast-I-small"), method="parallel", n_ranks=3)
    assert result.n_efms == 530
    assert sorted(returned) == [
        (0, "NullspaceResult"), (1, "ReplicaSummary"), (2, "ReplicaSummary")
    ]


def test_a_diverged_replica_is_caught(monkeypatch):
    from repro.errors import AlgorithmError
    from repro.parallel import combinatorial

    real = combinatorial.combinatorial_worker

    def corrupt(comm, *args, **kwargs):
        out = real(comm, *args, **kwargs)
        if comm.rank == 1:
            out.words = out.words.copy()
            out.words[0, 0] ^= np.uint64(1)
        return out

    monkeypatch.setattr(combinatorial, "combinatorial_worker", corrupt)
    with pytest.raises(AlgorithmError, match="rank 1 replica diverged"):
        compute_efms(get_network("toy"), method="parallel", n_ranks=2)


def test_finish_drops_the_solver_result(monkeypatch):
    """By the time the rows are canonicalized, the solver's mode matrix
    (values and support words) is freed."""
    import gc
    import weakref

    refs = []
    real = api._enumerate

    def spy(*args, **kwargs):
        modes, stats = real(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in (modes.values, modes.supports.words))
        return modes, stats

    real_canonical = EFMResult.canonical
    alive = []

    def canonical(self, *, in_place=False):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        return real_canonical(self, in_place=in_place)

    monkeypatch.setattr(api, "_enumerate", spy)
    monkeypatch.setattr(EFMResult, "canonical", canonical)
    compute_efms(get_network("yeast-I-small"))
    assert alive == [[False, False]]


def test_finish_holds_at_most_two_output_sized_arrays(monkeypatch):
    """From the expansion on, a ``yeast-II-small`` finish allocates at
    most one output-sized array beyond the output buffer it expands into:
    the rounded sort keys, and after they are freed the sorted copy."""
    import tracemalloc

    start = []
    real_expand = CompressionRecord.expand_fluxes

    def expand(self, reduced_fluxes, *, out=None):
        # Live now: the float reduced rows and the unfilled output buffer.
        start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return real_expand(self, reduced_fluxes, out=out)

    monkeypatch.setattr(CompressionRecord, "expand_fluxes", expand)
    tracemalloc.start()
    try:
        result = compute_efms(get_network("yeast-II-small"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = result.fluxes.nbytes
    assert len(start) == 1
    # Slack for the sort order and per-row temporaries (n-sized arrays).
    assert peak - start[0] <= out_bytes + out_bytes // 20
