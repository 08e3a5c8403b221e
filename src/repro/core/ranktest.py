"""The algebraic rank test (RankTests) — refs [18], [20], [21], [30].

A candidate flux mode with support ``S`` is elementary iff the submatrix
``N[:, S]`` of the (reduced, permuted) stoichiometry has right-nullspace
dimension exactly 1: the steady-state solutions supported on ``S`` then
form a single ray, and no solution with a strictly smaller support exists
inside ``S``.  Nullity 0 cannot happen for a candidate (the candidate
itself is a witness); nullity >= 2 means a smaller-support solution exists
and the candidate is rejected.

Three backends compute the ranks:

``"modular"`` (default)
    The residue-field engine in :mod:`repro.linalg.modular`: the
    stoichiometry is rescaled to exact integers once per problem, the
    nullity query is rewritten in complement form against a gcd-reduced
    integer kernel basis, and batch ranks come from certified fraction-free
    elimination after a unit-row reduction (mod-``p`` and SVD
    escalation for the rare stacks the exact arm cannot certify; wholesale
    SVD fallback for problems whose entries are not safely rational).
``"batched"``
    The engine in :mod:`repro.linalg.batched`: candidates are bucketed by
    support size, each bucket's submatrices are gathered into one 3-D
    stack and decomposed by a single gufunc-batched SVD call, and an
    optional support-pattern memo (:class:`repro.linalg.batched.RankCache`)
    skips repeated selections across iterations and divide-and-conquer
    subproblems.
``"loop"``
    The reference implementation: one Python-level
    :func:`~repro.linalg.numeric.numeric_rank` call per candidate.  Kept
    for parity testing and benchmarking.

All backends share the support-pattern rank memo and see only candidates
that survive summary rejection — the packed supports are unpacked solely
for those survivors, never for the full batch.

The streamed candidate phase calls this test only for candidates that
pass its zero-mode subset pre-screen
(:func:`repro.core.iterstream.zero_mode_supersets`): a candidate whose
support strictly contains a zero-entry survivor's support has nullity at
least 2 and is rejected there, before any backend or memo sees it.  The
backends therefore decide only the candidates no bitset test can.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_POLICY, NumericPolicy, RankBackend
from repro.core.state import ModeMatrix
from repro.errors import AlgorithmError
from repro.linalg import rational
from repro.linalg.batched import CacheBinding, bucketed_ranks
from repro.linalg.bitset import unpack_supports
from repro.linalg.modular import modular_ranks
from repro.linalg.numeric import numeric_rank


def rank_test(
    candidates: ModeMatrix,
    n_perm: np.ndarray,
    rank_bound: int,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
    n_exact: rational.FractionMatrix | None = None,
    backend: RankBackend = "batched",
    cache: CacheBinding | None = None,
    stats=None,
) -> np.ndarray:
    """Boolean acceptance mask for a batch of candidates.

    Parameters
    ----------
    candidates:
        Candidate modes (rows).
    n_perm:
        Stoichiometry in the problem's column permutation, ``(m, q)``.
    rank_bound:
        Rank of the full stoichiometry; supports larger than
        ``rank_bound + 1`` are summarily rejected (they cannot have nullity
        1 — the paper's "at least two more columns than rows" shortcut,
        tightened from row count to rank).
    n_exact:
        When given (exact-arithmetic runs), rank is computed over
        Fractions on the same column selection instead of by SVD.
    backend:
        ``"modular"`` (residue-field kernel + memo), ``"batched"``
        (bucketed gufunc SVD + memo) or ``"loop"`` (one SVD per candidate)
        — see the module docstring.
    cache:
        Optional problem-bound rank memo (modular and batched backends).
    stats:
        Optional :class:`~repro.core.stats.IterationStats` receiving the
        engine's cache-hit and batch counters.
    """
    n_cand = candidates.n_modes
    accept = np.zeros(n_cand, dtype=bool)
    if n_cand == 0:
        return accept
    if n_perm.shape[1] != candidates.q:
        raise AlgorithmError("stoichiometry/candidate width mismatch")

    sizes = candidates.supports.popcounts()
    testable = (sizes > 0) & (sizes <= rank_bound + 1)
    idx = np.nonzero(testable)[0]
    if idx.size == 0:
        return accept

    # Unpack only the survivors of summary rejection — the full-batch bool
    # matrix is never materialized.
    words = candidates.supports.words[idx]
    support_mask = unpack_supports(words, candidates.q)  # (q, n_surv)
    surv_sizes = sizes[idx]

    if backend == "loop":
        for pos, c in enumerate(idx):
            cols = np.nonzero(support_mask[:, pos])[0]
            if n_exact is not None:
                sub = rational.select_columns(n_exact, cols.tolist())
                r = rational.exact_rank(sub)
            else:
                r = numeric_rank(n_perm[:, cols], policy)
            accept[c] = (int(surv_sizes[pos]) - r) == 1
        return accept
    if backend == "modular":
        ranks = modular_ranks(
            n_perm,
            support_mask,
            surv_sizes,
            policy=policy,
            n_exact=n_exact,
            words=words,
            cache=cache,
            stats=stats,
        )
        accept[idx] = (surv_sizes - ranks) == 1
        return accept
    if backend != "batched":
        raise AlgorithmError(f"unknown rank-test backend {backend!r}")

    ranks = bucketed_ranks(
        n_perm,
        support_mask,
        surv_sizes,
        policy=policy,
        n_exact=n_exact,
        words=words,
        cache=cache,
        stats=stats,
    )
    accept[idx] = (surv_sizes - ranks) == 1
    return accept
