"""Algorithm 1 over ``fractions.Fraction`` rows: the oracle of the integer
mode arithmetic.

The program carries modes as exact integer rows (int64, Python ints past
the int64 envelope), reduced by their gcd after every combination.  This
module runs the same enumeration the simplest correct way, sharing none
of that machinery: every mode is a list of Fractions scaled to unit
max-norm, candidates are formed pair by pair, supports are read off the
exact values, duplicates are dropped keep-first, and elementarity is
``nullity(N[:, S]) == 1`` by Python-integer elimination on the column
integerized stoichiometry.  Rows are processed in the problem's static
position order (the EFM set does not depend on the order).

* :func:`fraction_modes` returns the final modes as coprime integer rows
  in the problem's processing permutation;
* :func:`oriented_rows` puts integer rows in a comparable form (a mode
  without irreversible support may come out with either sign);
* :func:`use_fraction_oracle` / :func:`solve_with_fraction_oracle` patch
  the oracle into ``compute_efms``'s serial driver, so a whole solve can
  be repeated on it.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from repro.core.kernel import NullspaceProblem
from repro.core.serial import NullspaceResult
from repro.core.state import ModeMatrix
from repro.core.stats import RunStats
from repro.efm import api
from tests.linalg import rational_oracle as rational
from tests.linalg.kernel_oracle import integerize_columns


def _int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination (each
    eliminated row divided by its gcd to keep the integers small)."""
    rows = [r for r in rows if any(r)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                r = [p[c] * v - f * w for v, w in zip(rows[i], p)]
                g = math.gcd(*r)
                rows[i] = [v // g for v in r] if g > 1 else r
        rank += 1
    return rank


def _support(row: list[Fraction]) -> frozenset[int]:
    return frozenset(j for j, v in enumerate(row) if v)


def _unit(row: list[Fraction]) -> list[Fraction]:
    top = max(abs(v) for v in row)
    return [v / top for v in row]


def _coprime(row: list[Fraction]) -> tuple[int, ...]:
    lcm = math.lcm(*(v.denominator for v in row))
    ints = [int(v * lcm) for v in row]
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints)


def fraction_modes(problem: NullspaceProblem) -> list[tuple[int, ...]]:
    """The EFMs of ``problem`` as coprime integer rows (processing
    permutation), computed on Fraction rows."""
    a = integerize_columns(rational.from_numpy(problem.n_perm))

    @functools.lru_cache(maxsize=None)
    def elementary(support: frozenset[int]) -> bool:
        cols = sorted(support)
        return len(cols) - _int_rank([[row[c] for c in cols] for row in a]) == 1

    modes = [
        _unit([Fraction(int(x)) for x in col])
        for col in problem.kernel.T.tolist()
    ]
    for k in range(problem.first_row, problem.q):
        pos = [m for m in modes if m[k] > 0]
        neg = [m for m in modes if m[k] < 0]
        zero = [m for m in modes if m[k] == 0]
        seen = {_support(m) for m in zero}
        accepted = []
        for x in pos:
            sx = _support(x)
            for y in neg:
                # An elementary support has at most rank + 1 entries, and
                # the combination zeroes row k of the union.
                if len(sx | _support(y)) > problem.rank + 2:
                    continue
                cand = [-y[k] * u + x[k] * v for u, v in zip(x, y)]
                s = _support(cand)
                if s in seen:
                    continue
                seen.add(s)
                if elementary(s):
                    accepted.append(_unit(cand))
        modes = zero + pos + (neg if problem.reversible[k] else []) + accepted
    return [_coprime(m) for m in modes]


def oriented_rows(rows, reversible: np.ndarray) -> list[tuple[int, ...]]:
    """Sorted integer rows, each mode without an irreversible nonzero
    oriented so its first nonzero entry is positive."""
    irreversible = np.flatnonzero(~np.asarray(reversible, dtype=bool))
    out = []
    for row in rows:
        row = tuple(int(v) for v in row)
        if not any(row[j] for j in irreversible):
            lead = next(v for v in row if v)
            if lead < 0:
                row = tuple(-v for v in row)
        out.append(row)
    return sorted(out)


def fraction_nullspace_algorithm(
    problem: NullspaceProblem, **_ignored
) -> NullspaceResult:
    """Drop-in for :func:`repro.core.serial.nullspace_algorithm` (full
    runs only) whose modes come from :func:`fraction_modes`."""
    t0 = time.perf_counter()
    rows = fraction_modes(problem)
    values = np.array(rows, dtype=object).reshape(len(rows), problem.q)
    stats = RunStats(t_total=time.perf_counter() - t0)
    return NullspaceResult(
        problem=problem, modes=ModeMatrix(values), stats=stats,
        stopped_at=problem.q,
    )


def use_fraction_oracle(monkeypatch) -> None:
    """Route ``compute_efms(method="serial")`` through the oracle for the
    lifetime of ``monkeypatch`` (a pytest ``MonkeyPatch``)."""
    monkeypatch.setattr(api, "nullspace_algorithm", fraction_nullspace_algorithm)


def solve_with_fraction_oracle(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the serial driver on the oracle."""
    with pytest.MonkeyPatch.context() as m:
        use_fraction_oracle(m)
        return fn(*args, **kwargs)
