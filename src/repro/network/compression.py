"""Network compression — the paper's preprocessing reduction step.

Before the Nullspace Algorithm runs, "the metabolic network and its
stoichiometry matrix may be reduced by eliminating redundant reactions,
metabolites, and constraints" (§II.C, refs [19], [21], [29]); the reduced
network has an *equivalent* EFM set.  This module implements the three
classical lossless reductions, iterated to a fixpoint:

1. **Blocked-reaction removal** (dead ends): a metabolite that cannot be
   balanced forces every reaction touching it to zero flux.
2. **Coupled-reaction merging**: a metabolite touched by exactly two
   reactions ties their fluxes by an exact ratio, so the pair merges into
   one column and the metabolite row disappears (this is how the toy
   network's ``D`` row and ``r9`` column vanish, with ``r9 ≡ r3``).
3. **Unconstrained-column extraction**: a reaction whose merged column is
   identically zero is not constrained by steady state at all; it is an
   elementary mode by itself (e.g. a fully merged 2-cycle) and is lifted
   out as a *singleton EFM*.

Linearly dependent metabolite rows (conservation relations) beyond case 2
are left in place — they do not change the nullspace, only the echelon
reduction cost, and the exact-arithmetic kernel handles rank-deficient
stoichiometries directly.

The :class:`CompressionRecord` returned alongside the reduced network is an
exact linear map from reduced flux space back to the original reaction
space, so EFMs computed on the reduced network expand losslessly.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from repro.errors import CompressionError
from repro.network.model import MetabolicNetwork, Metabolite, Reaction


@dataclasses.dataclass
class _LiveReaction:
    """Mutable working copy of a (possibly merged) reaction during
    compression."""

    name: str
    stoich: dict[str, Fraction]
    reversible: bool
    exchange: bool
    #: Exact map from this merged variable to original reaction fluxes.
    expansion: dict[str, Fraction]
    #: Original column order of the representative (for stable output order).
    order: int


@dataclasses.dataclass(frozen=True)
class SingletonEFM:
    """An elementary mode fully determined during compression.

    ``fluxes`` maps original reaction names to exact flux values; the mode
    is the ray ``{t * fluxes : t > 0}``.
    """

    fluxes: Mapping[str, Fraction]
    reversible: bool


@dataclasses.dataclass(frozen=True)
class CompressionRecord:
    """Losslessly invertible record of a compression run.

    Attributes
    ----------
    original, reduced:
        The input network and its compressed equivalent.
    expansion:
        Exact matrix (list-of-rows of Fractions), shape
        ``(n_original_reactions, n_reduced_reactions)``: a reduced flux
        vector ``v`` expands to original fluxes ``expansion @ v``.
    blocked:
        Original reaction names proven to carry zero flux in every steady
        state (they expand to 0 in every EFM).
    singletons:
        EFMs fully resolved during compression (zero columns / merged
        cycles); disjoint from the reduced network's EFMs.
    merged_groups:
        For each reduced reaction name, the original reactions folded into
        it (singleton groups mean "not merged").
    """

    original: MetabolicNetwork
    reduced: MetabolicNetwork
    expansion: list[list[Fraction]]
    blocked: tuple[str, ...]
    singletons: tuple[SingletonEFM, ...]
    merged_groups: Mapping[str, tuple[str, ...]]

    @property
    def expansion_array(self) -> np.ndarray:
        """Float64 view of :attr:`expansion`.

        Only the non-zero entries are converted: a reduced reaction expands
        to the few original reactions merged into it, so nearly every entry
        is zero (48 of 2,109 on yeast-I-small).
        """
        out = np.zeros((self.original.n_reactions, self.reduced.n_reactions))
        nonzero = [
            (i, j, float(c))
            for i, row in enumerate(self.expansion)
            for j, c in enumerate(row)
            if c
        ]
        if nonzero:
            rows, cols, values = zip(*nonzero)
            out[rows, cols] = values
        return out

    def expand_fluxes(
        self, reduced_fluxes: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Map a reduced flux matrix ``(q_red, n_modes)`` to the original
        reaction space ``(q_orig, n_modes)`` (float64), written into
        ``out`` when given (for instance the transposed view of a
        row-major mode buffer)."""
        reduced_fluxes = np.atleast_2d(np.asarray(reduced_fluxes, dtype=np.float64))
        if reduced_fluxes.shape[0] != self.reduced.n_reactions:
            raise CompressionError(
                f"flux matrix has {reduced_fluxes.shape[0]} rows, expected "
                f"{self.reduced.n_reactions}"
            )
        e = self.expansion_array
        if out is None:
            out = np.empty((e.shape[0], reduced_fluxes.shape[1]))
        # Row by row, so no packed copy of the input is made, as a matrix
        # product makes one.  An original reaction is one reduced
        # reaction's multiple (or blocked), so its row is that product
        # added to +0.0, bit for bit what the matrix product gives.
        out[...] = 0.0
        for j, k in zip(*np.nonzero(e)):
            out[j] += e[j, k] * reduced_fluxes[k]
        return out

    def singleton_flux_matrix(self) -> np.ndarray:
        """Singleton EFMs as columns in the original reaction space."""
        q = self.original.n_reactions
        out = np.zeros((q, len(self.singletons)))
        for k, s in enumerate(self.singletons):
            for name, val in s.fluxes.items():
                out[self.original.reaction_index(name), k] = float(val)
        return out

    def summary(self) -> str:
        """One-line "62×78 → 35×55"-style report."""
        mo, qo = self.original.shape
        mr, qr = self.reduced.shape
        return (
            f"{self.original.name}: {mo}x{qo} -> {mr}x{qr} "
            f"({len(self.blocked)} blocked, {len(self.singletons)} singleton EFMs, "
            f"{sum(1 for g in self.merged_groups.values() if len(g) > 1)} merges)"
        )


def compress_network(
    network: MetabolicNetwork, *, max_rounds: int = 10_000
) -> CompressionRecord:
    """Compress ``network`` to an EFM-equivalent reduced network.

    Iterates blocked-reaction removal, coupled-pair merging, and
    unconstrained-column extraction to a fixpoint.  Deterministic: scans
    run in metabolite/reaction order and the lowest-index reaction of a
    merged pair becomes the representative.
    """
    live: list[_LiveReaction] = [
        _LiveReaction(
            name=r.name,
            stoich=dict(r.stoich),
            reversible=r.reversible,
            exchange=r.exchange,
            expansion={r.name: Fraction(1)},
            order=i,
        )
        for i, r in enumerate(network.reactions)
    ]
    live_mets: list[str] = list(network.metabolite_names)
    blocked: set[str] = set()
    singletons: list[SingletonEFM] = []

    for _ in range(max_rounds):
        if not _compression_round(live, live_mets, blocked, singletons):
            break
    else:  # pragma: no cover - defensive; rounds strictly shrink the problem
        raise CompressionError("compression did not reach a fixpoint")

    live.sort(key=lambda r: r.order)
    reduced_reactions = [
        Reaction(name=r.name, stoich=r.stoich, reversible=r.reversible, exchange=r.exchange)
        for r in live
    ]
    referenced = {m for r in live for m in r.stoich}
    reduced_mets = [Metabolite(m) for m in live_mets if m in referenced]
    reduced = MetabolicNetwork(network.name + "-reduced", reduced_mets, reduced_reactions)

    q_orig = network.n_reactions
    expansion: list[list[Fraction]] = [
        [Fraction(0)] * len(live) for _ in range(q_orig)
    ]
    merged_groups: dict[str, tuple[str, ...]] = {}
    for j, r in enumerate(live):
        members = []
        for orig_name, coeff in r.expansion.items():
            expansion[network.reaction_index(orig_name)][j] = coeff
            members.append(orig_name)
        merged_groups[r.name] = tuple(sorted(members))

    return CompressionRecord(
        original=network,
        reduced=reduced,
        expansion=expansion,
        blocked=tuple(sorted(blocked)),
        singletons=tuple(singletons),
        merged_groups=merged_groups,
    )


def _compression_round(
    live: list[_LiveReaction],
    live_mets: list[str],
    blocked: set[str],
    singletons: list[SingletonEFM],
) -> bool:
    """Run one scan of all three reductions; returns True if anything
    changed."""
    changed = False

    # 3. Unconstrained columns -> singleton EFMs.
    still_live: list[_LiveReaction] = []
    for r in live:
        if r.stoich:
            still_live.append(r)
        else:
            singletons.append(
                SingletonEFM(fluxes=dict(r.expansion), reversible=r.reversible)
            )
            changed = True
    live[:] = still_live

    # Index metabolite -> touching live reactions.
    touching: dict[str, list[_LiveReaction]] = {m: [] for m in live_mets}
    for r in live:
        for m in r.stoich:
            touching[m].append(r)

    # Drop untouched metabolite rows.
    untouched = [m for m in live_mets if not touching[m]]
    if untouched:
        for m in untouched:
            live_mets.remove(m)
            del touching[m]
        changed = True

    # 1. Dead-end blocking.
    to_block: set[str] = set()
    for m in live_mets:
        rxns = touching[m]
        if len(rxns) == 1:
            to_block.add(rxns[0].name)
            continue
        if any(r.reversible for r in rxns):
            continue
        signs = {1 if r.stoich[m] > 0 else -1 for r in rxns}
        if len(signs) == 1:  # only produced or only consumed
            to_block.update(r.name for r in rxns)
    if to_block:
        for r in live:
            if r.name in to_block:
                # Every original reaction folded into a blocked merged
                # variable carries zero flux in all steady states.
                blocked.update(r.expansion.keys())
        live[:] = [r for r in live if r.name not in to_block]
        return True  # restart the scan with fresh indices

    # 2. Coupled-pair merge (first applicable metabolite only, then rescan).
    for m in live_mets:
        rxns = touching[m]
        if len(rxns) != 2:
            continue
        j1, j2 = sorted(rxns, key=lambda r: r.order)
        merged, block_pair = _merge_pair(j1, j2, m)
        if block_pair:
            blocked.update(j1.expansion.keys())
            blocked.update(j2.expansion.keys())
            live[:] = [r for r in live if r is not j1 and r is not j2]
        else:
            assert merged is not None
            idx = live.index(j1)
            live[idx] = merged
            live.remove(j2)
        live_mets.remove(m)
        return True

    return changed


def _merge_pair(
    j1: _LiveReaction, j2: _LiveReaction, met: str
) -> tuple[_LiveReaction | None, bool]:
    """Merge two reactions coupled through ``met``.

    Steady state forces ``c1*v1 + c2*v2 = 0``, i.e. ``v2 = lam*v1`` with
    ``lam = -c1/c2``.  Returns ``(merged, blocked)``; ``blocked`` is True
    when the direction constraints force ``v1 = 0`` (both reactions dead).
    """
    c1 = j1.stoich[met]
    c2 = j2.stoich[met]
    lam = -c1 / c2

    # Direction constraint on v1 from each irreversible member:
    #  j1 irreversible -> v1 >= 0
    #  j2 irreversible -> lam*v1 >= 0  -> v1 >= 0 if lam > 0 else v1 <= 0
    lower = not j1.reversible or (not j2.reversible and lam > 0)  # v1 >= 0
    upper = not j2.reversible and lam < 0  # v1 <= 0
    if lower and upper:
        return None, True

    stoich: dict[str, Fraction] = dict(j1.stoich)
    for m, c in j2.stoich.items():
        stoich[m] = stoich.get(m, Fraction(0)) + lam * c
    stoich = {m: c for m, c in stoich.items() if c != 0}
    if met in stoich:  # pragma: no cover - cancellation is exact by construction
        raise CompressionError(f"merge through {met!r} failed to cancel")

    expansion: dict[str, Fraction] = dict(j1.expansion)
    for name, c in j2.expansion.items():
        expansion[name] = expansion.get(name, Fraction(0)) + lam * c
    expansion = {n: c for n, c in expansion.items() if c != 0}

    reversible = not (lower or upper)
    if upper:  # flip orientation so the merged flux variable is >= 0
        stoich = {m: -c for m, c in stoich.items()}
        expansion = {n: -c for n, c in expansion.items()}

    merged = _LiveReaction(
        name=j1.name,
        stoich=stoich,
        reversible=reversible,
        exchange=j1.exchange or j2.exchange,
        expansion=expansion,
        order=j1.order,
    )
    return merged, False
