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
        self, modes_split: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Map exact integer mode rows from split-network order back to
        original order.

        ``modes_split``: ``(n_modes, ·)`` coprime integer rows (int64, or
        Python ints in an object array); ``columns[j]`` is the column
        holding ``self.split.reaction_names[j]`` (default: the columns are
        in that order).  Returns ``(n_kept, q_orig)`` integer rows of the
        same dtype in ``self.original.reaction_names`` order with two-cycle
        artifacts dropped and sign-flipped duplicates removed, first
        occurrences kept.  Every decision is exact: a support is the
        non-zero entries, and two rows are one ray iff they are equal,
        since a ray has exactly one coprime integer row.
        """
        modes_split = np.atleast_2d(np.asarray(modes_split))
        if modes_split.dtype.kind not in "iO":
            raise NetworkError(
                f"fold_modes takes exact integer rows, got {modes_split.dtype}"
            )
        if columns is None:
            columns = np.arange(modes_split.shape[1])
        if len(columns) != self.split.n_reactions:
            raise NetworkError(
                f"mode width {len(columns)} != split network width "
                f"{self.split.n_reactions}"
            )

        def col(name: str) -> int:
            return columns[self.split.reaction_index(name)]

        targets = np.empty(len(columns), dtype=np.intp)
        signs = np.ones(len(columns), dtype=np.int64)
        split_set = set(self.split_names)
        for j, name in enumerate(self.original.reaction_names):
            if name in split_set:
                targets[col(name + FWD_SUFFIX)] = j
                targets[col(name + BWD_SUFFIX)] = j
                signs[col(name + BWD_SUFFIX)] = -1
            else:
                targets[col(name)] = j
        return fold_split_columns(
            modes_split,
            targets,
            signs,
            ~np.array(self.original.reversibility, dtype=bool),
        )

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


def fold_split_columns(
    modes: np.ndarray,
    targets: np.ndarray,
    signs: np.ndarray,
    irreversible: np.ndarray,
) -> np.ndarray:
    """:meth:`SplitRecord.fold_modes` by column indices: column ``j`` of
    the exact integer rows ``modes`` adds ``signs[j]`` times its flux to
    column ``targets[j]`` of the folded rows (``-1`` on a backward half);
    ``irreversible`` flags the folded columns.  Returns the folded rows
    with the split artifacts dropped."""
    out = np.zeros((modes.shape[0], irreversible.size), dtype=modes.dtype)
    # Column by column, so no temporary of the size of ``modes`` is made
    # (the fold runs when the mode matrix is at its largest).
    filled: set[int] = set()
    for j, (t, sign) in enumerate(zip(targets.tolist(), signs.tolist())):
        col = modes[:, j]
        if t not in filled:
            filled.add(t)
            out[:, t] = col if sign > 0 else -col
        elif sign > 0:
            out[:, t] += col
        else:
            out[:, t] -= col
    # Canonicalize the sign of fully-reversible-support modes (first
    # active entry positive), then keep the first occurrence of each
    # non-zero row: the flipped copies go, and so do two-cycle artifacts
    # (both halves of a split reaction active; elementarity in the split
    # network makes such a mode the bare two-cycle, which folds to 0).
    active = out != 0
    lead = out[np.arange(out.shape[0]), active.argmax(axis=1)]
    flip = ~active[:, irreversible].any(axis=1) & (lead < 0)
    out[flip] = -out[flip]
    first = _first_occurrences(out)
    first = first[active[first].any(axis=1)]
    return out if first.size == out.shape[0] else out[first]


#: Odd multiplier of the polynomial row key of :func:`_first_occurrences`
#: (arithmetic mod ``2**64``; any odd constant keeps the key exact on
#: equal rows, a large one spreads small-integer rows apart).
ROW_KEY_MULTIPLIER = 0x9E3779B97F4A7C15


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    int64 rows are grouped on a 64-bit polynomial key of each row, built
    a column at a time, so no copy of ``rows`` is made: equal rows share a
    key, and each key group keeps its first row once every member is
    compared equal to it exactly.  A group holding two different rows (a
    key collision) sends the whole call to the exact sort of the rows as
    byte strings."""
    if rows.dtype == object:
        first: dict[tuple, int] = {}
        for i, row in enumerate(map(tuple, rows.tolist())):
            first.setdefault(row, i)
        return np.fromiter(first.values(), dtype=np.intp, count=len(first))
    n = rows.shape[0]
    key = np.zeros(n, dtype=np.uint64)
    mult = np.uint64(ROW_KEY_MULTIPLIER)
    for j in range(rows.shape[1]):
        key *= mult
        key += rows[:, j].astype(np.uint64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(n, dtype=bool)
    head[1:] = key[1:] != key[:-1]
    # Each row against the first row of its key group (stable order: the
    # group's smallest index); singleton groups compare with themselves.
    lead = order[np.maximum.accumulate(np.where(head, np.arange(n), 0))]
    dup = np.flatnonzero(~head)
    if dup.size and not (rows[order[dup]] == rows[lead[dup]]).all():
        return _first_occurrences_sorted(rows)
    first = order[head]
    first.sort()
    return first


def _first_occurrences_sorted(rows: np.ndarray) -> np.ndarray:
    """:func:`_first_occurrences` by an exact sort of the rows as byte
    strings (the key-collision path)."""
    keys = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()
    _, idx = np.unique(keys, return_index=True)
    idx.sort()
    return idx
