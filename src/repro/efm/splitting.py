"""Reversible-reaction splitting.

The Nullspace Algorithm needs every reversible reaction in the *processed*
(pivot) block of the kernel; when a network has more independent reversible
directions than the stoichiometric rank can absorb, some reversible
reactions would land in the identity block and their negative-flux modes
would be silently lost.  The classical remedy is to split such a reaction
``r`` into an irreversible forward/backward pair::

    r  (A <=> B)   ->   r<fwd> (A => B),  r<bwd> (B => A)

The EFMs of the split network are exactly the EFMs of the original network
(via ``v_r = v_fwd - v_bwd``) plus (a) one spurious two-cycle
``{r<fwd>, r<bwd>}`` per split reaction and (b) a second, sign-flipped copy
of every EFM whose support touches a split reaction *and* lies entirely in
reversible reactions.  :meth:`SplitRecord.fold_modes` removes both
artifacts when mapping results back.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.errors import NetworkError
from repro.network.model import MetabolicNetwork, Reaction

#: Suffixes of the split halves (chosen to stay valid reaction names).
FWD_SUFFIX = "__fwd"
BWD_SUFFIX = "__bwd"


@dataclasses.dataclass(frozen=True)
class SplitRecord:
    """Mapping between a network and its reversible-split derivative."""

    original: MetabolicNetwork
    split: MetabolicNetwork
    #: names of the original reactions that were split.
    split_names: tuple[str, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.split_names

    def fold_modes(
        self, modes_split: np.ndarray, *, tol: float = 1e-12
    ) -> np.ndarray:
        """Map mode rows from split-network order back to original order.

        ``modes_split``: ``(n_modes, q_split)`` with columns in
        ``self.split.reaction_names`` order.  Returns ``(n_kept, q_orig)``
        rows in ``self.original.reaction_names`` order with two-cycle
        artifacts dropped and sign-flipped duplicates removed.
        """
        modes_split = np.atleast_2d(np.asarray(modes_split, dtype=np.float64))
        if modes_split.shape[1] != self.split.n_reactions:
            raise NetworkError(
                f"mode width {modes_split.shape[1]} != split network width "
                f"{self.split.n_reactions}"
            )
        q_orig = self.original.n_reactions
        out = np.zeros((modes_split.shape[0], q_orig))
        split_set = set(self.split_names)
        for j, name in enumerate(self.original.reaction_names):
            if name in split_set:
                jf = self.split.reaction_index(name + FWD_SUFFIX)
                jb = self.split.reaction_index(name + BWD_SUFFIX)
                out[:, j] = modes_split[:, jf] - modes_split[:, jb]
            else:
                out[:, j] = modes_split[:, self.split.reaction_index(name)]

        # Drop two-cycle artifacts: both halves of some split reaction
        # active.  Elementarity in the split network guarantees such a mode
        # IS the bare two-cycle, which folds to the zero vector.
        active = np.abs(out) > tol
        keep = active.any(axis=1)
        out = out[keep]
        active = active[keep]

        # Canonicalize sign of fully-reversible-support modes (first active
        # entry positive) and dedup the flipped copies.
        irr = ~np.array(self.original.reversibility, dtype=bool)
        lead = out[np.arange(out.shape[0]), active.argmax(axis=1)]
        flip = (np.abs(out[:, irr]) <= tol).all(axis=1) & (lead < 0)
        out[flip] = -out[flip]
        return _dedup_rows(out, tol)

    def blow_up_names(self, names: Iterable[str]) -> list[str]:
        """Translate original reaction names to split-network names (a
        split reaction maps to its forward half)."""
        out = []
        split_set = set(self.split_names)
        for n in names:
            out.append(n + FWD_SUFFIX if n in split_set else n)
        return out


def split_reversible(
    network: MetabolicNetwork, names: Sequence[str]
) -> SplitRecord:
    """Split the named reversible reactions into forward/backward pairs."""
    names = tuple(names)
    for n in names:
        rxn = network.reaction(n)
        if not rxn.reversible:
            raise NetworkError(f"reaction {n!r} is not reversible; cannot split")
        for suffix in (FWD_SUFFIX, BWD_SUFFIX):
            if network.has_reaction(n + suffix):
                raise NetworkError(f"name collision: {n + suffix!r} already exists")
    if not names:
        return SplitRecord(original=network, split=network, split_names=())

    split_set = set(names)
    new_reactions: list[Reaction] = []
    for rxn in network.reactions:
        if rxn.name in split_set:
            new_reactions.append(
                Reaction(
                    name=rxn.name + FWD_SUFFIX,
                    stoich=dict(rxn.stoich),
                    reversible=False,
                    exchange=rxn.exchange,
                )
            )
            new_reactions.append(
                Reaction(
                    name=rxn.name + BWD_SUFFIX,
                    stoich={m: -c for m, c in rxn.stoich.items()},
                    reversible=False,
                    exchange=rxn.exchange,
                )
            )
        else:
            new_reactions.append(rxn)
    split_net = MetabolicNetwork(
        network.name + "-split", network.metabolites, new_reactions
    )
    return SplitRecord(original=network, split=split_net, split_names=names)


def _dedup_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Remove near-duplicate rows up to positive scaling (ray identity)."""
    if rows.shape[0] <= 1:
        return rows
    scale = np.abs(rows).max(axis=1)
    normed = rows / np.where(scale > 0, scale, 1.0)[:, None]
    keys = np.round(normed, 9)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    return rows[first]
