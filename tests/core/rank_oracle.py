"""The per-candidate rank loop: reference oracle for the rank kernel.

:func:`repro.core.ranktest.rank_test` takes its exact ranks from one
engine, :func:`repro.linalg.modular.modular_ranks`.  This module keeps the
simplest correct forms as references and lets a test route ``rank_test``
through any of them:

* :func:`numeric_rank` — one SVD with a relative singular-value cutoff;
* :func:`loop_ranks` — one :func:`numeric_rank` call (or, with
  ``exact=True``, one rational elimination via
  :func:`tests.linalg.rational_oracle.exact_rank`) per candidate, no memo;
* :data:`ENGINES` — ``"modular"`` (the engine), ``"loop"`` (the SVD
  oracle) and ``"exact"`` (the rational oracle), all with the
  ``modular_ranks`` signature;
* :func:`use_rank_engine` — patch the named engine into ``rank_test`` for
  every driver (serial, combinatorial, column-partitioned,
  divide-and-conquer, and the whole-set body of ``batch_oracle``);
* :func:`rank_test_with` / :func:`solve_with` — one call under a named
  engine.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import ranktest
from tests.linalg import rational_oracle as rational
from repro.linalg.modular import modular_ranks

#: Relative singular-value cutoff of :func:`numeric_rank` (the efmtool
#: convention, scaled by ``sigma_max * max(shape)``).
RANK_TOL = 1e-8


def numeric_rank(a: np.ndarray) -> int:
    """Numeric rank via SVD: singular values above
    ``RANK_TOL * sigma_max * max(shape)`` count, with an absolute floor so
    the all-zero matrix has rank 0."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = max(RANK_TOL * s[0] * max(a.shape), 1e-300)
    return int(np.count_nonzero(s > cutoff))


def loop_ranks(
    n_perm: np.ndarray,
    support_mask: np.ndarray,
    sizes: np.ndarray,
    *,
    exact: bool = False,
    words=None,
    cache=None,
    stats=None,
) -> np.ndarray:
    """Ranks of ``n_perm[:, S_i]``, one decomposition per candidate.

    Same contract as :func:`~repro.linalg.modular.modular_ranks`; the memo
    and the counter sink are ignored, so every rank is computed afresh.
    """
    n_exact = rational.from_numpy(n_perm) if exact else None
    ranks = np.zeros(int(sizes.size), dtype=np.int64)
    for pos in range(ranks.size):
        cols = np.nonzero(support_mask[:, pos])[0]
        if n_exact is not None:
            sub = rational.select_columns(n_exact, cols.tolist())
            ranks[pos] = rational.exact_rank(sub)
        else:
            ranks[pos] = numeric_rank(n_perm[:, cols])
    return ranks


ENGINES = {
    "modular": modular_ranks,
    "loop": loop_ranks,
    "exact": functools.partial(loop_ranks, exact=True),
}


def use_rank_engine(monkeypatch, engine: str) -> None:
    """Route every ``rank_test`` call through ``ENGINES[engine]`` for the
    lifetime of ``monkeypatch`` (a pytest ``MonkeyPatch``)."""
    monkeypatch.setattr(ranktest, "modular_ranks", ENGINES[engine])


def rank_test_with(engine: str, *args, **kwargs) -> np.ndarray:
    """``rank_test(*args, **kwargs)`` on the named engine."""
    return solve_with(engine, ranktest.rank_test, *args, **kwargs)


def solve_with(engine: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every rank test on the named engine."""
    with pytest.MonkeyPatch.context() as m:
        use_rank_engine(m, engine)
        return fn(*args, **kwargs)
