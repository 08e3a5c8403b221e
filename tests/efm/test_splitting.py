"""Tests for reversible-reaction splitting."""

import numpy as np
import pytest

from repro.efm.api import compute_efms
from repro.efm.splitting import BWD_SUFFIX, FWD_SUFFIX, split_reversible
from repro.errors import NetworkError
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


class TestFoldModes:
    def test_split_efms_fold_to_original_set(self, toy):
        """EFMs computed on the fully split toy network fold exactly to
        the 8 modes of eq. (7)."""
        rec = split_reversible(toy, ("r6r", "r8r"))
        split_result = compute_efms(rec.split)
        folded = rec.fold_modes(split_result.fluxes)
        original = compute_efms(toy)
        from tests.conftest import assert_same_modes

        assert_same_modes(folded, original.fluxes)

    def test_two_cycles_dropped(self, toy):
        rec = split_reversible(toy, ("r6r",))
        split_result = compute_efms(rec.split)
        jf = rec.split.reaction_index("r6r" + FWD_SUFFIX)
        jb = rec.split.reaction_index("r6r" + BWD_SUFFIX)
        both = (np.abs(split_result.fluxes[:, jf]) > 1e-9) & (
            np.abs(split_result.fluxes[:, jb]) > 1e-9
        )
        assert both.sum() == 1  # exactly the spurious 2-cycle exists
        folded = rec.fold_modes(split_result.fluxes)
        assert folded.shape[0] == split_result.n_efms - 1

    def test_width_validated(self, toy):
        rec = split_reversible(toy, ("r6r",))
        with pytest.raises(NetworkError):
            rec.fold_modes(np.ones((1, 3)))

    def test_folded_steady_state(self, toy):
        rec = split_reversible(toy, ("r6r", "r8r"))
        split_result = compute_efms(rec.split)
        folded = rec.fold_modes(split_result.fluxes)
        n = stoichiometric_matrix(toy)
        assert np.allclose(n @ folded.T, 0.0, atol=1e-8)


def _fold_modes_loop(rec, modes_split, tol=1e-12):
    """Reference: the per-row loops ``SplitRecord.fold_modes`` and
    ``_dedup_rows`` used before they were vectorized."""
    modes_split = np.atleast_2d(np.asarray(modes_split, dtype=np.float64))
    out = np.zeros((modes_split.shape[0], rec.original.n_reactions))
    split_set = set(rec.split_names)
    for j, name in enumerate(rec.original.reaction_names):
        if name in split_set:
            jf = rec.split.reaction_index(name + FWD_SUFFIX)
            jb = rec.split.reaction_index(name + BWD_SUFFIX)
            out[:, j] = modes_split[:, jf] - modes_split[:, jb]
        else:
            out[:, j] = modes_split[:, rec.split.reaction_index(name)]
    keep = (np.abs(out) > tol).any(axis=1)
    out = out[keep]
    irr = ~np.array(rec.original.reversibility, dtype=bool)
    for i in range(out.shape[0]):
        row = out[i]
        if (np.abs(row[irr]) <= tol).all():
            nz = np.nonzero(np.abs(row) > tol)[0]
            if nz.size and row[nz[0]] < 0:
                out[i] = -row
    if out.shape[0] <= 1:
        return out
    normed = out.copy()
    for i in range(normed.shape[0]):
        m = np.abs(normed[i]).max()
        if m > 0:
            normed[i] /= m
    keys = np.round(normed, 9)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    return out[first]


def _random_split_modes(rec, rng, n_modes):
    """Random rows in split-network order mixing the cases ``fold_modes``
    handles: ordinary rows, rows supported only on reversible reactions
    (either sign), bare two-cycles, sign-flipped and rescaled copies, and
    entries below the tolerance."""
    q = rec.split.n_reactions
    rev = np.array(
        [rec.split.reaction(n).reversible or n.endswith((FWD_SUFFIX, BWD_SUFFIX))
         for n in rec.split.reaction_names]
    )
    rows = []
    for _ in range(n_modes):
        kind = rng.integers(5)
        row = np.zeros(q)
        if kind == 0:  # ordinary mode
            sel = rng.random(q) < 0.4
            row[sel] = rng.integers(-3, 4, sel.sum()) * rng.choice([1.0, 0.5, 1 / 3])
        elif kind == 1:  # fully reversible support
            sel = rev & (rng.random(q) < 0.6)
            row[sel] = rng.integers(-3, 4, sel.sum()) * rng.choice([1.0, 0.25])
        elif kind == 2:  # bare two-cycle of one split reaction
            name = rec.split_names[rng.integers(len(rec.split_names))]
            v = float(rng.integers(1, 4))
            row[rec.split.reaction_index(name + FWD_SUFFIX)] = v
            row[rec.split.reaction_index(name + BWD_SUFFIX)] = v
        elif kind == 3 and rows:  # flipped or rescaled copy of an earlier row
            row = rows[rng.integers(len(rows))] * rng.choice([-1.0, 2.0, -0.5])
        else:  # tiny entries around the tolerance
            sel = rng.random(q) < 0.3
            row[sel] = rng.choice([1e-13, -1e-13, 1.0, -2.0], sel.sum())
        rows.append(row)
    return np.array(rows).reshape(n_modes, q)


class TestFoldModesMatchesLoop:
    """The vectorized fold is bit-identical to the per-row loops."""

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
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_yeast_split_efms(self):
        """The split run of a real network folds identically."""
        from repro.models import get_network

        net = get_network("yeast-I-small")
        rev = tuple(r.name for r in net.reactions if r.reversible)[:4]
        rec = split_reversible(net, rev)
        modes = compute_efms(rec.split).fluxes
        assert rec.fold_modes(modes).tobytes() == _fold_modes_loop(rec, modes).tobytes()
