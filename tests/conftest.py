"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.kernel import build_problem
from tests.linalg import rational_oracle as rational
from repro.models.toy import toy_network
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import exact_stoichiometric_matrix


@pytest.fixture(scope="session")
def toy():
    """The paper's Figure 1 network."""
    return toy_network()


@pytest.fixture(scope="session")
def toy_record(toy):
    """Compression record of the toy network (eq. (4))."""
    return compress_network(toy)


@pytest.fixture(scope="session")
def toy_problem(toy_record):
    """Prepared problem matching eq. (5)/(6) exactly (paper free set)."""
    return build_problem(toy_record.reduced, free_hint=("r2", "r4", "r5", "r7"))


@pytest.fixture(scope="session")
def yeast_problem():
    """yeast-I-small, compressed and split."""
    from repro.efm.api import build_problem_with_split  # noqa: PLC0415
    from repro.models.variants import yeast_1_small  # noqa: PLC0415

    problem, _ = build_problem_with_split(compress_network(yeast_1_small()).reduced)
    return problem


def canonical_rows(rows: np.ndarray, ndigits: int = 9) -> np.ndarray:
    """Scale rows to unit max-norm and sort lexicographically, for
    order/scale-independent EFM set comparison."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[0] == 0:
        return rows
    scale = np.abs(rows).max(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    rows = rows / scale
    keys = np.round(rows, ndigits)
    return keys[np.lexsort(keys.T[::-1])]


def assert_same_modes(a: np.ndarray, b: np.ndarray, atol: float = 1e-7) -> None:
    ca, cb = canonical_rows(a), canonical_rows(b)
    assert ca.shape == cb.shape, f"mode counts differ: {ca.shape} vs {cb.shape}"
    assert np.allclose(ca, cb, atol=atol)


def brute_force_efms(network: MetabolicNetwork) -> np.ndarray:
    """Independent EFM oracle: exhaustive support enumeration.

    For every reaction subset ``S`` with ``|S| <= rank + 1``, a mode with
    support exactly ``S`` exists iff ``N[:, S]`` has an exactly 1-dim
    nullspace whose basis vector is non-zero on all of ``S`` and can be
    oriented to satisfy the irreversibility signs.  Exponential in the
    reaction count — tiny networks only (q <= 14).

    Returns modes as rows in network reaction order.
    """
    n_exact = exact_stoichiometric_matrix(network)
    q = network.n_reactions
    if q > 14:
        raise ValueError("brute force oracle limited to q <= 14")
    rank = rational.exact_rank(n_exact)
    rev = network.reversibility
    out: list[list[float]] = []
    for size in range(1, min(q, rank + 1) + 1):
        for subset in itertools.combinations(range(q), size):
            sub = rational.select_columns(n_exact, list(subset))
            basis = rational.exact_nullspace(sub)
            ncols = len(basis[0]) if basis else 0
            if ncols != 1:
                continue
            v = [basis[i][0] for i in range(size)]
            if any(x == 0 for x in v):
                continue  # true support is smaller; found at smaller S
            has_pos = any(v[i] > 0 for i in range(size) if not rev[subset[i]])
            has_neg = any(v[i] < 0 for i in range(size) if not rev[subset[i]])
            if has_pos and has_neg:
                continue  # cannot orient feasibly
            if has_neg:
                v = [-x for x in v]
            full = [0.0] * q
            for i, j in enumerate(subset):
                full[j] = float(v[i])
            out.append(full)
    modes = np.array(out) if out else np.zeros((0, q))
    # Fully-reversible-support modes appear once per orientation choice
    # already (we canonicalized the sign only when irreversible coords
    # exist); canonicalize the rest.
    for i in range(modes.shape[0]):
        row = modes[i]
        irr = ~np.array(rev, dtype=bool)
        if (np.abs(row[irr]) <= 1e-12).all():
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            if nz.size and row[nz[0]] < 0:
                modes[i] = -row
    # dedup
    return canonical_rows(modes) if modes.size else modes


def exact_matrix(rows) -> list[list[Fraction]]:
    return rational.to_fraction_matrix(rows)


class FreshSolve(NamedTuple):
    """What one ``compute_efms`` call did in a fresh interpreter."""

    n_efms: int
    #: Every module in ``sys.modules`` once the solve returned.
    loaded: frozenset[str]
    #: The modules the solve itself imported: ``loaded`` minus the
    #: snapshot taken after ``import repro.efm.api`` and building the
    #: network.
    added: frozenset[str]


def solve_in_fresh_interpreter(network: str, **kwargs) -> FreshSolve:
    """Run ``compute_efms(<network>(), **kwargs)`` in a new Python process.

    ``network`` names a builder in :mod:`repro.models.variants`; keyword
    values must round-trip through ``repr``.  Runs are cached per
    argument set, so guards that share a solve pay for one subprocess.
    """
    return _fresh_solve(network, tuple(sorted(kwargs.items())))


@functools.cache
def _fresh_solve(network: str, kwargs: tuple) -> FreshSolve:
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "from repro.efm.api import compute_efms\n"
        f"from repro.models.variants import {network}\n"
        f"net = {network}()\n"
        "before = set(sys.modules)\n"
        f"r = compute_efms(net, **dict({kwargs!r}))\n"
        "after = set(sys.modules)\n"
        "print(r.n_efms)\n"
        "print(*sorted(after))\n"
        "print(*sorted(after - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    n_efms, loaded, added = out.stdout.split("\n")[:3]
    return FreshSolve(int(n_efms), frozenset(loaded.split()), frozenset(added.split()))
