"""The network-rebuild path of Algorithm 3's subset preparation: the
oracle of the derived subset kernels of :mod:`repro.dnc.combined`.

The program derives every subset's blocked reactions and pinned problem
from the parent's integer kernel.  This module does it the direct way,
sharing none of that machinery: each subset's network is rebuilt with
:meth:`~repro.network.model.MetabolicNetwork.without_reactions`, screened
by compression's dead-end and direction-conflict rules plus the zero rows
of its own kernel (:func:`blocked_reactions`), and built into a problem
by :func:`~repro.core.kernel.build_problem`, splitting reversible
reactions with :func:`~repro.efm.splitting.split_reversible` and
retrying until the build succeeds.

* :func:`blocked_reactions` — one network's blocked reactions;
* :func:`screen_subsets` — the same subset-lattice pass as
  :func:`repro.dnc.combined.screen_subsets`, over :func:`blocked_reactions`;
* :func:`prepare_subset` — one subset's pinned problem from its rebuilt
  network (:class:`OracleSubset`);
* :func:`solve_subset` — that problem enumerated by the serial driver and
  mapped back to the reduced network's columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.kernel import NullspaceProblem, build_problem
from repro.core.serial import nullspace_algorithm
from repro.core.state import unit_float_rows
from repro.dnc.subsets import SubsetSpec
from repro.efm.splitting import SplitRecord, split_reversible
from repro.errors import (
    DependentPartitionError,
    NoModesError,
    ReversibleIdentityError,
)
from repro.linalg.numeric import kernel_identity_form
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix


def blocked_reactions(network: MetabolicNetwork) -> frozenset[str]:
    """Reactions of ``network`` that carry zero flux in every steady state.

    Two exact rules, repeated until nothing changes: compression's
    dead-end and direction-conflict merge rules, and zero rows of the
    compressed network's exact kernel — a merged reaction that is zero in
    every nullspace vector blocks every reaction merged into it.
    Singleton EFMs lifted out by compression carry flux and are never
    blocked.
    """
    blocked: set[str] = set()
    net = network
    while True:
        rec = compress_network(net)
        blocked.update(rec.blocked)
        names = rec.reduced.reaction_names
        if not names:
            return frozenset(blocked)
        kernel, perm = kernel_identity_form(stoichiometric_matrix(rec.reduced))
        zero_rows = np.flatnonzero(~kernel.any(axis=1))
        if not zero_rows.size:
            return frozenset(blocked)
        for p in zero_rows.tolist():
            blocked.update(rec.merged_groups[names[perm[p]]])
        net = network.without_reactions(blocked)


def screen_subsets(
    reduced: MetabolicNetwork, specs: list[SubsetSpec]
) -> tuple[list[frozenset[str]], int]:
    """Each subset's blocked reactions over the subset lattice (ascending
    zero sets inherit the blocked sets of their subsets), and how many
    :func:`blocked_reactions` calls that took."""
    zeros = [frozenset(spec.zero) for spec in specs]
    out: list[frozenset[str]] = [frozenset()] * len(specs)
    visited: list[int] = []
    n_computed = 0
    for i in sorted(range(len(specs)), key=lambda k: (len(zeros[k]), k)):
        z = zeros[i]
        blocked = set()
        for j in visited:
            if zeros[j] < z:
                blocked |= out[j]
        blocked -= z
        if blocked.isdisjoint(specs[i].nonzero):
            gone = z | blocked
            blocked |= blocked_reactions(
                reduced.without_reactions(gone) if gone else reduced
            )
            n_computed += 1
        out[i] = frozenset(blocked)
        visited.append(i)
    return out, n_computed


@dataclasses.dataclass
class OracleSubset:
    """One subset's rebuilt network and pinned problem (``problem`` is
    ``None`` when the subset is empty)."""

    spec: SubsetSpec
    reduced: MetabolicNetwork
    problem: NullspaceProblem | None
    stop: int = 0
    fallback: bool = False
    split_rec: SplitRecord | None = None
    #: the network whose reaction order the folded modes are in.
    src: MetabolicNetwork | None = None
    screened: bool = False

    def finalize(self, values: np.ndarray) -> np.ndarray:
        """Float EFM rows (unit max-norm) in the reduced network's columns
        from the run's integer mode rows (processing order)."""
        problem = self.problem
        assert problem is not None and self.src is not None
        if not self.fallback:
            keep = np.ones(values.shape[0], dtype=bool)
            for pos in range(self.stop, problem.q):
                v = values[:, pos]
                keep &= (v != 0) if problem.reversible[pos] else (v > 0)
            values = values[keep]
        if self.split_rec is None:
            vals = unit_float_rows(values, problem.inverse_perm())
        else:
            vals = unit_float_rows(
                self.split_rec.fold_modes(values, problem.inverse_perm())
            )
        if self.fallback:
            keep = np.ones(vals.shape[0], dtype=bool)
            for name in self.spec.nonzero:
                keep &= vals[:, self.src.reaction_index(name)] != 0.0
            vals = vals[keep]
        efms = np.zeros((vals.shape[0], self.reduced.n_reactions))
        for j, name in enumerate(self.src.reaction_names):
            efms[:, self.reduced.reaction_index(name)] = vals[:, j]
        return efms


def prepare_subset(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    blocked: frozenset[str] | None = None,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
) -> OracleSubset:
    """The subset's pinned problem, built from its rebuilt network with
    the zero set and ``blocked`` deleted (``blocked`` defaults to
    :func:`blocked_reactions` of the network without the zero set)."""
    force_last = list(spec.nonzero)
    sub = reduced.without_reactions(spec.zero) if spec.zero else reduced
    if blocked is None:
        blocked = blocked_reactions(sub)
    if not blocked.isdisjoint(force_last):
        return OracleSubset(spec, reduced, None, screened=True)
    if blocked:
        sub = reduced.without_reactions(set(spec.zero) | blocked)
    split_rec: SplitRecord | None = None
    work = sub
    fallback = False
    while True:
        try:
            problem = build_problem(
                work, options=options, force_last=() if fallback else force_last
            )
            break
        except DependentPartitionError:
            fallback = True
        except ReversibleIdentityError as exc:
            rec = split_reversible(work, exc.reactions)
            split_rec = rec if split_rec is None else SplitRecord(
                original=split_rec.original,
                split=rec.split,
                split_names=split_rec.split_names + rec.split_names,
            )
            work = rec.split
        except NoModesError:
            return OracleSubset(spec, reduced, None)
    return OracleSubset(
        spec,
        reduced,
        problem,
        stop=problem.q if fallback else problem.q - len(force_last),
        fallback=fallback,
        split_rec=split_rec,
        src=split_rec.original if split_rec is not None else sub,
    )


def solve_subset(
    reduced: MetabolicNetwork,
    spec: SubsetSpec,
    blocked: frozenset[str] | None = None,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
) -> np.ndarray:
    """The subset's EFM rows in the reduced network's columns."""
    prep = prepare_subset(reduced, spec, blocked, options=options)
    if prep.problem is None:
        return np.zeros((0, reduced.n_reactions))
    res = nullspace_algorithm(prep.problem, stop_row=prep.stop, options=options)
    return prep.finalize(res.modes.values)
