"""Divide-and-conquer subset specifications.

The EFM set is partitioned across ``q_sub`` chosen reactions into
``2**q_sub`` disjoint subsets: subset ``i`` holds exactly the EFMs whose
zero / non-zero flux pattern over those reactions matches the binary
representation of ``i`` (§II.E).  Bit ``j`` (LSB first) corresponds to
``partition[j]``; bit value 1 means *non-zero* flux.

Convention for row placement (Algorithm 3, line 11): the partition tuple
is ordered so its **last** element occupies the very last row of the
reordered nullspace matrix — matching the paper's "{R54r, R90r, R60r},
where the reaction R60r corresponds to the last row".
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.errors import PartitionError
from repro.network.model import MetabolicNetwork


@dataclasses.dataclass(frozen=True)
class SubsetSpec:
    """One subproblem of a divide-and-conquer partition."""

    subset_id: int
    partition: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.partition)) != len(self.partition):
            raise PartitionError(f"duplicate partition reactions: {self.partition}")
        if not (0 <= self.subset_id < 2 ** len(self.partition)):
            raise PartitionError(
                f"subset id {self.subset_id} out of range for "
                f"{len(self.partition)} partition reactions"
            )

    @property
    def q_sub(self) -> int:
        return len(self.partition)

    @property
    def nonzero(self) -> tuple[str, ...]:
        """Reactions required to carry non-zero flux, in partition order."""
        return tuple(
            r for j, r in enumerate(self.partition) if (self.subset_id >> j) & 1
        )

    @property
    def zero(self) -> tuple[str, ...]:
        """Reactions required to carry zero flux."""
        return tuple(
            r for j, r in enumerate(self.partition) if not (self.subset_id >> j) & 1
        )

    def label(self) -> str:
        """Paper-style label: zero-flux reactions are overlined (rendered
        here with a '~' prefix, e.g. ``~R89r R74r``)."""
        parts = []
        for j, r in enumerate(self.partition):
            parts.append(r if (self.subset_id >> j) & 1 else f"~{r}")
        return " ".join(parts)

    def refine(self, extra_reaction: str) -> tuple["SubsetSpec", "SubsetSpec"]:
        """Split this subset by one more reaction (prepended, so it sits
        above the existing partition rows — the paper's 3->4-reaction
        refinement of Table IV).  Returns the (zero, non-zero) children."""
        if extra_reaction in self.partition:
            raise PartitionError(f"{extra_reaction!r} already partitions this subset")
        new_partition = (extra_reaction,) + self.partition
        base = self.subset_id << 1
        return (
            SubsetSpec(subset_id=base, partition=new_partition),
            SubsetSpec(subset_id=base | 1, partition=new_partition),
        )


def refinement_reaction(spec: SubsetSpec, reduced: MetabolicNetwork) -> str:
    """The reaction that refines an out-of-memory subset (see
    :meth:`SubsetSpec.refine`).

    Prefers reversible reactions (their rows never shed columns during the
    run, so zeroing them prunes the most work — the paper's choices R54r,
    R90r, R60r, R22r are all reversible) that are not already in the
    partition, the last in network order, falling back to the last
    remaining reaction.
    """
    used = set(spec.partition)
    reversibles = [
        r.name for r in reduced.reactions if r.reversible and r.name not in used
    ]
    if reversibles:
        return reversibles[-1]
    others = [r.name for r in reduced.reactions if r.name not in used]
    if not others:
        raise PartitionError(
            f"subset {spec.label()} exhausted every reaction without fitting "
            "in memory"
        )
    return others[-1]


def enumerate_subsets(partition: Sequence[str]) -> list[SubsetSpec]:
    """All ``2**len(partition)`` subset specs, ordered by subset id."""
    partition = tuple(partition)
    if not partition:
        raise PartitionError("empty partition")
    return [
        SubsetSpec(subset_id=i, partition=partition)
        for i in range(2 ** len(partition))
    ]


def validate_partition(network: MetabolicNetwork, partition: Sequence[str]) -> None:
    """Check partition reactions exist in the (reduced) network.

    The paper notes the reactions "can not be randomly selected, as the
    pre-processing step of reducing metabolic network size will eliminate
    some of them" — the caller must pass *reduced-network* names, and this
    raises :class:`~repro.errors.PartitionError` with the surviving-name
    hint if a name was compressed away.
    """
    missing = [r for r in partition if not network.has_reaction(r)]
    if missing:
        raise PartitionError(
            f"partition reactions {missing} do not exist in network "
            f"{network.name!r} (eliminated by compression?).  Surviving "
            f"reactions: {', '.join(network.reaction_names)}"
        )
