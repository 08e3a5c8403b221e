"""The algebraic rank test (RankTests) — refs [18], [20], [21], [30].

A candidate flux mode with support ``S`` is elementary iff the submatrix
``N[:, S]`` of the (reduced, permuted) stoichiometry has right-nullspace
dimension exactly 1: the steady-state solutions supported on ``S`` then
form a single ray, and no solution with a strictly smaller support exists
inside ``S``.  Nullity 0 cannot happen for a candidate (the candidate
itself is a witness); nullity >= 2 means a smaller-support solution exists
and the candidate is rejected.

The ranks come from one engine, the residue-field kernel of
:mod:`repro.linalg.modular`: the stoichiometry is read as exact integers
once per problem (the same reading the initial kernel uses), each nullity
query is rewritten in complement form against a gcd-reduced integer
kernel basis, and batch ranks come from certified fraction-free
elimination after a unit-row reduction, with residue-field and
Python-integer elimination behind it.  A support-pattern memo
(:class:`repro.linalg.rankmemo.RankCache`) serves repeated column
selections across iterations and divide-and-conquer subproblems.  The
packed supports are unpacked solely for the candidates that survive
summary rejection, never for the full batch.

The streamed candidate phase calls this test only for candidates that
pass its zero-mode subset pre-screen
(:func:`repro.core.iterstream.zero_mode_supersets`): a candidate whose
support strictly contains a zero-entry survivor's support has nullity at
least 2 and is rejected there, before the engine or the memo sees it.
The engine therefore decides only the candidates no bitset test can.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import ModeMatrix
from repro.errors import AlgorithmError
from repro.linalg.bitset import unpack_supports
from repro.linalg.modular import modular_ranks
from repro.linalg.rankmemo import CacheBinding


def rank_test(
    candidates: ModeMatrix,
    n_perm: np.ndarray,
    rank_bound: int,
    *,
    cache: CacheBinding | None = None,
    stats=None,
) -> np.ndarray:
    """Boolean accept mask for a batch of candidates.

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
    cache:
        Optional problem-bound rank memo.
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

    ranks = modular_ranks(
        n_perm, support_mask, surv_sizes, words=words, cache=cache, stats=stats
    )
    accept[idx] = (surv_sizes - ranks) == 1
    return accept
