"""Tests for reversible-reaction splitting."""

import math

import numpy as np
import pytest

from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm
from repro.efm.api import compute_efms
from repro.efm.splitting import BWD_SUFFIX, FWD_SUFFIX, split_reversible
from repro.errors import NetworkError, ReversibleIdentityError
from repro.models.generators import random_network
from repro.network.stoichiometry import stoichiometric_matrix


class TestSplitNetwork:
    def test_split_shapes(self, toy):
        rec = split_reversible(toy, ("r6r", "r8r"))
        assert rec.split.n_reactions == 11  # 9 + 2
        assert rec.split.reaction("r6r" + FWD_SUFFIX).reversible is False
        assert rec.split.reaction("r6r" + BWD_SUFFIX).reversible is False

    def test_backward_negates_stoichiometry(self, toy):
        rec = split_reversible(toy, ("r6r",))
        fwd = rec.split.reaction("r6r" + FWD_SUFFIX)
        bwd = rec.split.reaction("r6r" + BWD_SUFFIX)
        assert {m: -c for m, c in fwd.stoich.items()} == dict(bwd.stoich)

    def test_trivial_split(self, toy):
        rec = split_reversible(toy, ())
        assert rec.is_trivial
        assert rec.split is toy

    def test_irreversible_rejected(self, toy):
        with pytest.raises(NetworkError):
            split_reversible(toy, ("r1",))

    def test_name_collision_rejected(self, toy):
        rec = split_reversible(toy, ("r6r",))
        with pytest.raises(NetworkError):
            split_reversible(rec.split, ("r8r",)) and split_reversible(
                rec.split, ("r6r",)
            )

    def test_blow_up_names(self, toy):
        rec = split_reversible(toy, ("r6r",))
        assert rec.blow_up_names(["r1", "r6r"]) == ["r1", "r6r" + FWD_SUFFIX]


def _split_int_efms(network, names):
    """Split ``names`` (plus any reaction the kernel needs split) and return
    the split record with the split network's EFMs as coprime integer rows
    in its reaction order."""
    names = tuple(names)
    while True:
        rec = split_reversible(network, names)
        try:
            problem = build_problem(rec.split)
        except ReversibleIdentityError as exc:
            names += tuple(exc.reactions)
            continue
        res = nullspace_algorithm(problem)
        return rec, res.modes.values[:, problem.inverse_perm()]


class TestFoldModes:
    def test_split_efms_fold_to_original_set(self, toy):
        """EFMs computed on the fully split toy network fold exactly to
        the 8 modes of eq. (7)."""
        rec, modes = _split_int_efms(toy, ("r6r", "r8r"))
        folded = rec.fold_modes(modes)
        original = compute_efms(toy)
        from tests.conftest import assert_same_modes

        assert_same_modes(folded, original.fluxes)

    def test_two_cycles_dropped(self, toy):
        rec, modes = _split_int_efms(toy, ("r6r",))
        jf = rec.split.reaction_index("r6r" + FWD_SUFFIX)
        jb = rec.split.reaction_index("r6r" + BWD_SUFFIX)
        both = (modes[:, jf] != 0) & (modes[:, jb] != 0)
        assert both.sum() == 1  # exactly the spurious 2-cycle exists
        folded = rec.fold_modes(modes)
        assert folded.shape[0] == modes.shape[0] - 1

    def test_width_validated(self, toy):
        rec = split_reversible(toy, ("r6r",))
        with pytest.raises(NetworkError):
            rec.fold_modes(np.ones((1, 3), dtype=np.int64))

    def test_float_rows_refused(self, toy):
        rec = split_reversible(toy, ("r6r",))
        with pytest.raises(NetworkError, match="integer rows"):
            rec.fold_modes(np.ones((1, rec.split.n_reactions)))

    def test_folded_steady_state(self, toy):
        rec, modes = _split_int_efms(toy, ("r6r", "r8r"))
        folded = rec.fold_modes(modes)
        n = stoichiometric_matrix(toy)
        assert np.allclose(n @ folded.T, 0.0, atol=1e-8)

    def test_modes_equal_to_nine_digits_stay_distinct(self, toy):
        # Two different rays whose unit-max-norm rows agree to 9 digits: a
        # rounded dedup merges them, the exact one keeps both.
        rec = split_reversible(toy, ("r6r",))
        a = np.zeros(rec.split.n_reactions, dtype=np.int64)
        a[rec.split.reaction_index("r1")] = 10**10
        a[rec.split.reaction_index("r2")] = 1
        b = a.copy()
        b[rec.split.reaction_index("r2")] = 3
        folded = rec.fold_modes(np.stack([a, b]))
        assert folded.shape[0] == 2
        assert folded.dtype == np.int64

    def test_column_map_reads_in_place(self, toy):
        rec, modes = _split_int_efms(toy, ("r6r", "r8r"))
        perm = np.random.default_rng(0).permutation(modes.shape[1])
        shuffled = np.empty_like(modes)
        shuffled[:, perm] = modes
        got = rec.fold_modes(shuffled, perm)
        assert np.array_equal(got, rec.fold_modes(modes))

    def test_python_int_rows_fold(self, toy):
        rec, modes = _split_int_efms(toy, ("r6r", "r8r"))
        big = modes.astype(object)
        assert rec.fold_modes(big).tolist() == rec.fold_modes(modes).tolist()


def _fold_modes_loop(rec, modes_split):
    """Reference: ``SplitRecord.fold_modes`` one row at a time on Python
    ints."""
    irr = [not r.reversible for r in rec.original.reactions]
    out, seen = [], set()
    for row in np.atleast_2d(modes_split).tolist():
        folded = []
        for name in rec.original.reaction_names:
            if name in rec.split_names:
                jf = rec.split.reaction_index(name + FWD_SUFFIX)
                jb = rec.split.reaction_index(name + BWD_SUFFIX)
                folded.append(row[jf] - row[jb])
            else:
                folded.append(row[rec.split.reaction_index(name)])
        if not any(folded):
            continue
        if not any(v for v, i in zip(folded, irr) if i):
            if next(v for v in folded if v) < 0:
                folded = [-v for v in folded]
        key = tuple(folded)
        if key not in seen:
            seen.add(key)
            out.append(folded)
    return out


def _random_split_modes(rec, rng, n_modes):
    """Random coprime integer rows in split-network order mixing the cases
    ``fold_modes`` handles: ordinary rows, rows supported only on
    reversible reactions (either sign), bare two-cycles, sign-flipped
    copies, and rows equal to an earlier one to 9 digits."""
    q = rec.split.n_reactions
    rev = np.array(
        [rec.split.reaction(n).reversible or n.endswith((FWD_SUFFIX, BWD_SUFFIX))
         for n in rec.split.reaction_names]
    )
    rows, small = [], []
    for _ in range(n_modes):
        kind = rng.integers(5)
        row = np.zeros(q, dtype=np.int64)
        if kind == 0:  # ordinary mode
            sel = rng.random(q) < 0.4
            row[sel] = rng.integers(-3, 4, sel.sum())
        elif kind == 1:  # fully reversible support
            sel = rev & (rng.random(q) < 0.6)
            row[sel] = rng.integers(-3, 4, sel.sum())
        elif kind == 2:  # bare two-cycle of one split reaction
            name = rec.split_names[rng.integers(len(rec.split_names))]
            row[rec.split.reaction_index(name + FWD_SUFFIX)] = 1
            row[rec.split.reaction_index(name + BWD_SUFFIX)] = 1
        elif kind == 3 and rows:  # flipped copy of an earlier row
            row = -rows[rng.integers(len(rows))]
        elif small:  # an earlier small row, scaled up, one entry nudged
            row = small[rng.integers(len(small))] * 10**10
            row[rng.integers(q)] += 1
        g = math.gcd(*row.tolist())
        rows.append(row // g if g > 1 else row)
        if np.abs(row).max(initial=0) < 10:
            small.append(rows[-1])
    return np.array(rows, dtype=np.int64).reshape(n_modes, q)


class TestFoldModesMatchesLoop:
    """The vectorized fold equals the per-row loop on Python ints."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_split_modes(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(6, 14, seed=seed, reversible_fraction=0.6)
        rev = [r.name for r in net.reactions if r.reversible]
        if not rev:
            pytest.skip("generator produced no reversible reaction")
        names = tuple(n for n in rev if rng.random() < 0.7) or (rev[0],)
        rec = split_reversible(net, names)
        modes = _random_split_modes(rec, rng, int(rng.integers(0, 60)))
        got = rec.fold_modes(modes)
        want = _fold_modes_loop(rec, modes)
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_yeast_split_efms(self):
        """The split run of a real network folds identically."""
        from repro.models import get_network

        net = get_network("yeast-I-small")
        rev = tuple(r.name for r in net.reactions if r.reversible)[:4]
        rec, modes = _split_int_efms(net, rev)
        assert rec.fold_modes(modes).tolist() == _fold_modes_loop(rec, modes)
