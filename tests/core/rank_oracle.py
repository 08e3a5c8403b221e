"""The per-candidate rank loop: reference oracle for the rank kernel.

:func:`repro.core.ranktest.rank_test` takes its ranks from one engine,
:func:`repro.linalg.modular.modular_ranks`, which falls back to the SVD
stack :func:`repro.linalg.batched.bucketed_ranks` for exact runs,
non-rational stoichiometries and prime disagreements.  This module keeps
the simplest correct form as the reference and lets a test route
``rank_test`` through any of the three:

* :func:`loop_ranks` — one :func:`~repro.linalg.numeric.numeric_rank`
  call (or one exact rational elimination) per candidate, no memo;
* :data:`ENGINES` — ``"modular"`` (the engine), ``"batched"`` (the SVD
  fallback called directly) and ``"loop"`` (the oracle), all with the
  ``modular_ranks`` signature;
* :func:`use_rank_engine` — patch the named engine into ``rank_test`` for
  every driver (serial, combinatorial, column-partitioned,
  divide-and-conquer, and the whole-set body of ``batch_oracle``);
* :func:`rank_test_with` / :func:`solve_with` — one call under a named
  engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ranktest
from repro.linalg import rational
from repro.linalg.batched import bucketed_ranks
from repro.linalg.modular import modular_ranks
from repro.linalg.numeric import numeric_rank


def loop_ranks(
    n_perm: np.ndarray,
    support_mask: np.ndarray,
    sizes: np.ndarray,
    *,
    policy,
    n_exact=None,
    words=None,
    cache=None,
    stats=None,
) -> np.ndarray:
    """Ranks of ``n_perm[:, S_i]``, one decomposition per candidate.

    Same contract as :func:`~repro.linalg.modular.modular_ranks`; the memo
    and the counter sink are ignored, so every rank is computed afresh.
    """
    ranks = np.zeros(int(sizes.size), dtype=np.int64)
    for pos in range(ranks.size):
        cols = np.nonzero(support_mask[:, pos])[0]
        if n_exact is not None:
            sub = rational.select_columns(n_exact, cols.tolist())
            ranks[pos] = rational.exact_rank(sub)
        else:
            ranks[pos] = numeric_rank(n_perm[:, cols], policy)
    return ranks


ENGINES = {"modular": modular_ranks, "batched": bucketed_ranks, "loop": loop_ranks}


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
