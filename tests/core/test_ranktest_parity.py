"""Parity suite: the exact modular rank kernel vs. the per-candidate
loop oracles (``tests/core/rank_oracle.py``).

The kernel (``"modular"``) must be decision-for-decision identical to the
SVD loop (``"loop"``) and the rational loop (``"exact"``) on every input:
random networks, reversible and irreversible rows, degenerate batches,
cold and warm caches, across
divide-and-conquer subproblems sharing one memo, across the candidate
representation x streaming matrix, and end to end on a stoichiometry
with a non-rational column.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.kernel import build_problem
from repro.core.ranktest import rank_test
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats
from repro.dnc.combined import combined_parallel
from repro.dnc.selection import select_partition_reactions
from repro.efm.api import compute_efms
from repro.engine import RunContext
from repro.linalg.bitset import pack_supports
from repro.linalg.modular import modular_ranks
from repro.linalg.rankmemo import CacheBinding, RankCache, problem_token
from repro.models.generators import random_network
from repro.models.registry import get_network
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork, Reaction
from repro.network.stoichiometry import stoichiometric_matrix

from tests.conftest import assert_same_modes
from tests.core.batch_oracle import run_whole_set
from tests.core.rank_oracle import rank_test_with, solve_with, use_rank_engine

#: The engines checked against the loop oracle: the modular kernel.
ENGINES = ("modular",)


def _candidate_batch(problem, seed: int) -> ModeMatrix:
    """A diverse candidate batch: nullspace combinations (realistic
    supports), plus crafted degenerate rows — a zero row, single-column
    supports, and a dense row that summary rejection must discard."""
    rng = np.random.default_rng(seed)
    q, f = problem.q, problem.n_free
    coeffs = rng.integers(-3, 4, size=(25, f))
    # Sparsify some combinations for small supports.
    coeffs[rng.random(size=coeffs.shape) < 0.5] = 0
    vals = coeffs @ problem.kernel.T
    crafted = np.zeros((3, q), dtype=np.int64)
    crafted[1, rng.integers(q)] = 1
    # dense: support q > rank + 1
    crafted[2, :] = rng.integers(1, 5, size=q) * rng.choice([-1, 1], size=q)
    return ModeMatrix(np.concatenate([vals, crafted], axis=0))


def _problem_for(seed: int):
    from repro.errors import AlgorithmError

    # Some seeds compress to a trivial nullspace; step until one doesn't.
    for attempt in range(seed, seed + 1000, 100):
        net = random_network(
            6 + attempt % 4, 12 + attempt % 5, seed=attempt,
            reversible_fraction=0.4,
        )
        reduced = compress_network(net).reduced
        try:
            return build_problem(reduced)
        except AlgorithmError:
            continue
    raise RuntimeError("no usable random network found")


def _fresh_binding(n_perm: np.ndarray) -> CacheBinding:
    return CacheBinding(RankCache(), problem_token(n_perm))


class TestFloatParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_masks_bit_identical_on_random_networks(self, seed):
        problem = _problem_for(seed)
        cand = _candidate_batch(problem, seed)
        by_loop = rank_test_with("loop", cand, problem.n_perm, problem.rank)
        for engine in ENGINES:
            mask = rank_test_with(engine, cand, problem.n_perm, problem.rank)
            assert np.array_equal(by_loop, mask), engine

    @pytest.mark.parametrize("seed", range(12))
    def test_masks_bit_identical_with_cache(self, seed):
        problem = _problem_for(seed)
        cand = _candidate_batch(problem, seed)
        by_loop = rank_test_with("loop", cand, problem.n_perm, problem.rank)
        for engine in ENGINES:
            binding = _fresh_binding(problem.n_perm)
            for _ in range(2):  # cold, then warm
                mask = rank_test_with(
                    engine, cand, problem.n_perm, problem.rank, cache=binding
                )
                assert np.array_equal(by_loop, mask), engine
            # Second pass served from the memo.
            assert binding.cache.hits > 0, engine

    def test_stats_counters_populated(self):
        problem = _problem_for(3)
        cand = _candidate_batch(problem, 3)
        for engine in ENGINES:
            binding = _fresh_binding(problem.n_perm)
            it = IterationStats(position=0, reaction="r", reversible=False)
            for _ in range(2):  # cold, then served from the memo
                rank_test_with(
                    engine, cand, problem.n_perm, problem.rank,
                    cache=binding, stats=it,
                )
            assert it.n_rank_batches >= 1, engine
            assert it.rank_batch_max >= 1, engine
            assert it.n_rank_cache_hits > 0, engine
        assert it.n_rank_modular > 0  # the kernel certified the misses


class TestExactParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_masks_bit_identical_exact(self, seed):
        problem = _problem_for(seed)
        cand = _candidate_batch(problem, seed)
        by_exact = rank_test_with("exact", cand, problem.n_perm, problem.rank)
        for engine in ENGINES:
            mask = rank_test_with(engine, cand, problem.n_perm, problem.rank)
            assert np.array_equal(by_exact, mask), engine

    def test_exact_cache_hits_agree(self):
        problem = _problem_for(1)
        cand = _candidate_batch(problem, 1)
        binding = _fresh_binding(problem.n_perm)
        cold = rank_test(cand, problem.n_perm, problem.rank, cache=binding)
        warm = rank_test(cand, problem.n_perm, problem.rank, cache=binding)
        assert np.array_equal(cold, warm)
        assert binding.cache.hits > 0
        by_exact = rank_test_with("exact", cand, problem.n_perm, problem.rank)
        assert np.array_equal(by_exact, warm)


class TestDegenerateBuckets:
    def test_empty_batch(self, toy_problem):
        cand = ModeMatrix.empty(toy_problem.q)
        for engine in ("loop", *ENGINES):
            mask = rank_test_with(
                engine, cand, toy_problem.n_perm, toy_problem.rank
            )
            assert mask.shape == (0,), engine

    def test_zero_support_row(self, toy_problem):
        cand = ModeMatrix(np.zeros((2, toy_problem.q)))
        for engine in ("loop", *ENGINES):
            mask = rank_test_with(
                engine, cand, toy_problem.n_perm, toy_problem.rank
            )
            assert not mask.any(), engine

    def test_all_summarily_rejected(self, toy_problem):
        cand = ModeMatrix(np.ones((3, toy_problem.q)))
        for engine in ENGINES:
            binding = _fresh_binding(toy_problem.n_perm)
            mask = rank_test_with(
                engine, cand, toy_problem.n_perm, toy_problem.rank,
                cache=binding,
            )
            assert not mask.any(), engine
            assert len(binding.cache) == 0, engine  # engine never invoked

    def test_single_candidate_bucket(self, toy_problem):
        cand = ModeMatrix(np.array([[0, 2, 0, 1, 0, 0, 0, -1]], dtype=float))
        for engine in ("loop", *ENGINES):
            assert rank_test_with(
                engine, cand, toy_problem.n_perm, toy_problem.rank
            )[0], engine

    def test_duplicate_supports_one_bucket(self, toy_problem):
        # Same support, different values: one bucket, duplicate cache keys.
        base = np.array([0, 2, 0, 1, 0, 0, 0, -1], dtype=float)
        cand = ModeMatrix(np.stack([base, 2 * base, -base]))
        for engine in ENGINES:
            mask = rank_test_with(
                engine, cand, toy_problem.n_perm, toy_problem.rank,
                cache=_fresh_binding(toy_problem.n_perm),
            )
            assert mask.all(), engine


class TestCanonicalCacheKeys:
    """Cross-subproblem sharing: permuted, sign-flipped and duplicated
    columns must address the same memo entries."""

    def _ranks(self, n, mask, binding):
        sizes = mask.sum(axis=0).astype(np.int64)
        words = pack_supports(mask)
        return modular_ranks(n, mask, sizes, words=words, cache=binding)

    def test_permuted_and_flipped_columns_hit(self):
        rng = np.random.default_rng(0)
        n = rng.normal(size=(5, 8))
        cache = RankCache()
        token = b"tok"
        ident = CacheBinding(cache, token, np.arange(8))
        mask = rng.random(size=(8, 10)) < 0.4
        r1 = self._ranks(n, mask, ident)

        perm = rng.permutation(8)
        signs = rng.choice([-1.0, 1.0], size=8)
        n2 = n[:, perm] * signs
        binding2 = CacheBinding(cache, token, perm)
        misses_before = cache.misses
        # The same column selections, expressed in the permuted frame.
        inv_mask = mask[perm]
        r2 = self._ranks(n2, inv_mask, binding2)
        assert np.array_equal(r1, r2)
        assert cache.misses == misses_before  # every lookup hit

    def test_split_column_copies_hit(self):
        rng = np.random.default_rng(1)
        n = rng.normal(size=(4, 6))
        cache = RankCache()
        ident = CacheBinding(cache, b"t", np.arange(6))
        mask = np.zeros((6, 2), dtype=bool)
        mask[[0, 2], 0] = True
        mask[[1, 3, 4], 1] = True
        r1 = self._ranks(n, mask, ident)

        # A work network where column 0 was split into fwd/bwd copies:
        # local column 6 is -N[:, 0], canonical id 0.
        n_split = np.concatenate([n, -n[:, [0]]], axis=1)
        binding = CacheBinding(cache, b"t", np.array([0, 1, 2, 3, 4, 5, 0]))
        mask_bwd = np.zeros((7, 2), dtype=bool)
        mask_bwd[[2, 6], 0] = True  # {bwd-copy of 0, 2} == {0, 2}
        mask_bwd[[1, 3, 4], 1] = True
        misses_before = cache.misses
        r2 = self._ranks(n_split, mask_bwd, binding)
        assert np.array_equal(r1, r2)
        assert cache.misses == misses_before


class TestDnCSharedCache:
    def test_two_subproblems_share_entries(self):
        """The memo primed by one subset must serve (and not corrupt) the
        next: a combined run with the shared cache matches the loop
        oracle's EFM set exactly, with cross-subproblem hits observed."""
        net = get_network("yeast-I-small")
        reduced = compress_network(net).reduced
        part = select_partition_reactions(
            reduced, 2, method="tail", options=AlgorithmOptions()
        )
        runs = {
            engine: solve_with(engine, combined_parallel, reduced, part, 1)
            for engine in ("loop", *ENGINES)
        }
        for engine in ENGINES:
            assert runs["loop"].n_efms == runs[engine].n_efms, engine
            assert_same_modes(runs["loop"].efms(), runs[engine].efms())
            hits = sum(
                s.stats.total_rank_cache_hits
                for s in runs[engine].subsets
                if s.stats is not None
            )
            assert hits > 0, engine
        settled = sum(
            s.stats.total_rank_unit_members
            for s in runs["modular"].subsets
            if s.stats is not None
        )
        assert settled > 0  # the unit-row reduction actually engaged

    def test_context_binds_one_shared_memo(self):
        reduced = compress_network(get_network("toy")).reduced
        ctx = RunContext()
        ctx.bind_shared_rank_memo(reduced)
        memo = ctx.shared_rank_memo
        assert memo is not None and isinstance(memo[0], RankCache)
        assert memo[1] == problem_token(stoichiometric_matrix(reduced))


class TestRegistryEquivalence:
    """Identical EFM sets from the kernel and the loop oracle on the
    registry workloads that finish at test speed."""

    @pytest.mark.parametrize(
        "name", ["toy", "yeast-I-small", "yeast-II-small"]
    )
    def test_same_efms(self, name):
        net = get_network(name)
        results = {
            engine: solve_with(engine, compute_efms, net)
            for engine in ("loop", *ENGINES)
        }
        for engine in ENGINES:
            assert results["loop"].n_efms == results[engine].n_efms, engine
            assert results["loop"].same_modes_as(results[engine]), engine

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("method", ["serial", "parallel", "distributed"])
    def test_methods_agree(self, method, engine):
        net = get_network("yeast-I-small")
        kwargs = {} if method == "serial" else {"n_ranks": 2}
        res = solve_with(engine, compute_efms, net, method=method, **kwargs)
        assert res.n_efms == 530


class TestOptionMatrixParity:
    """The 530-EFM yeast-I-small pin must hold for the kernel and the loop
    oracle across the candidate-representation x streaming matrix, both
    producing the same mode set per combination.

    ``streaming="off"`` runs the whole-set oracle with ``representation``
    candidates; ``"on"`` runs the streamed phase, which must match that
    oracle bit for bit.  The streamed phase ignores ``representation``, so
    every solve is memoized per class and each is run once."""

    @pytest.fixture(scope="class")
    def solve(self):
        net = get_network("yeast-I-small")
        memo = {}

        def run(representation, engine):
            key = (representation, engine)
            if key not in memo:
                with pytest.MonkeyPatch.context() as m:
                    use_rank_engine(m, engine)
                    if representation is None:
                        memo[key] = compute_efms(net)
                    else:
                        memo[key] = run_whole_set(
                            m, representation, compute_efms, net
                        )
            return memo[key]

        return run

    @pytest.mark.parametrize("streaming", ["on", "off"])
    @pytest.mark.parametrize("representation", ["deferred", "eager"])
    def test_yeast_pin_across_backends(self, solve, representation, streaming):
        results = {}
        for engine in ("loop", *ENGINES):
            results[engine] = solve(representation, engine)
            if streaming == "on":
                streamed = solve(None, engine)
                assert np.array_equal(
                    streamed.fluxes, results[engine].fluxes
                ), engine
                results[engine] = streamed
            assert results[engine].n_efms == 530, engine
        for engine in ENGINES:
            assert results["loop"].same_modes_as(results[engine]), engine


def _scaled_column(net: MetabolicNetwork, name: str, factor) -> MetabolicNetwork:
    """``net`` with reaction ``name``'s coefficients multiplied by
    ``factor``: a column scaling, so the EFM supports do not change."""
    reactions = [
        Reaction(
            r.name,
            {met: c * Fraction(factor) for met, c in r.stoich.items()},
            r.reversible,
            r.exchange,
        )
        if r.name == name
        else r
        for r in net.reactions
    ]
    return MetabolicNetwork(net.name, net.metabolites, reactions)


class TestNonRationalColumnEndToEnd:
    """A π-scaled column is read as the exact rational value of its
    floats, so the kernel certifies every rank test of the run (no
    straggler needs Python-integer elimination); the EFM set must still be
    the SVD loop oracle's."""

    def test_non_rational_column_solved_exactly(self):
        net = _scaled_column(get_network("yeast-I-small"), "R26", np.pi)
        result = compute_efms(net)
        assert result.n_efms == 530
        assert result.stats.total_rank_fallback == 0
        assert result.stats.total_rank_modular > 0
        reference = solve_with("loop", compute_efms, net)
        assert result.same_modes_as(reference)
