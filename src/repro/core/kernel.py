"""Problem setup: the initial nullspace matrix in the paper's form.

Builds, from a (reduced) network or raw stoichiometry, the permuted problem
of eqs. (5)–(6): reaction columns permuted so the kernel reads ``(I; R2)``
with identity rows on top, the ``R2`` rows ordered by the processing
heuristic, and — for divide-and-conquer subproblems — selected reactions
forced to the bottom (Algorithm 3, line 11).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.ordering import order_rows
from repro.core.state import ModeMatrix
from repro.errors import (
    AlgorithmError,
    DependentPartitionError,
    NoModesError,
    ReversibleIdentityError,
)
from repro.linalg import modular
from repro.linalg.numeric import (
    INT64_LIMIT,
    identity_form_from_basis,
    kernel_identity_form,
)
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix


@dataclasses.dataclass(frozen=True)
class NullspaceProblem:
    """A fully prepared Nullspace Algorithm instance.

    All arrays are in the *processing* permutation: position ``i`` of the
    kernel rows / stoichiometric columns / names / reversibility flags is
    the reaction processed at iteration ``i`` (identity-block positions
    ``0..n_free-1`` are no-ops and skipped unless ``first_row == 0``).

    Attributes
    ----------
    n_perm:
        Stoichiometry with permuted columns, shape ``(m, q)`` (eq. (6)).
    kernel:
        Initial nullspace matrix, shape ``(q, n_free)`` (eq. (5)).
    reversible:
        Per-position reversibility flags.
    names:
        Per-position reaction names.
    perm:
        ``perm[i]`` = input-order reaction index at position ``i``.
    n_free:
        Kernel dimension (number of initial modes).
    rank:
        Rank of the stoichiometry (= ``q - n_free``); the rank test's
        summary-rejection bound.
    first_row:
        Position where iteration starts (``n_free`` normally; 0 when the
        permutation moved identity rows away from the top).
    """

    n_perm: np.ndarray
    kernel: np.ndarray
    reversible: np.ndarray
    names: tuple[str, ...]
    perm: np.ndarray
    n_free: int
    rank: int
    first_row: int

    @property
    def q(self) -> int:
        return self.n_perm.shape[1]

    @property
    def m(self) -> int:
        return self.n_perm.shape[0]

    @property
    def n_iterations(self) -> int:
        """Number of rows the standard (non-D&C) run processes."""
        return self.q - self.first_row

    def inverse_perm(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return inv

    def position_of(self, name: str) -> int:
        """Processing position of a reaction by name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgorithmError(f"reaction {name!r} not in problem") from None


def certify_modes(problem: NullspaceProblem, modes: ModeMatrix) -> int:
    """Check integer mode rows (processing permutation) exactly and
    return how many were checked.

    Each row ``e`` must be a steady state of the stoichiometry as
    :func:`~repro.linalg.modular.integer_columns` reads it — the reading
    the kernel and the rank test use.  That reading is ``A = N ·
    diag(s)``, and ``ker N = diag(s) · ker A``, so the check is ``(A ·
    diag(lcm(s) / s)) @ e == 0`` in integers, summed over ``A``'s
    nonzeros one metabolite at a time so no temporary is larger than one
    column of modes.  Every irreversible entry must be ``>= 0``.
    Elementarity is the rank test's exact decision and is not
    re-checked.

    Raises :class:`~repro.errors.AlgorithmError` naming the first mode
    that fails.
    """
    n = modes.n_modes
    if not n:
        return 0
    a_int, scales = modular.integer_columns(problem.n_perm)
    lcm = math.lcm(*scales)
    if lcm != 1:
        a_int = a_int.astype(object) * np.array(
            [lcm // s for s in scales], dtype=object
        )
    values = modes.values
    bad = np.zeros(n, dtype=bool)
    for row in a_int:
        cols = np.flatnonzero(row)
        if not cols.size:
            continue
        coef = row[cols].tolist()
        # int64 while the row's sum provably fits.
        if int(np.abs(row[cols]).max()) * modes.max_abs() * cols.size < INT64_LIMIT:
            acc = sum(a * values[:, c] for a, c in zip(coef, cols))
        else:
            acc = sum(a * values[:, c].astype(object) for a, c in zip(coef, cols))
        bad |= acc != 0
    negative = np.zeros(n, dtype=bool)
    for j in np.flatnonzero(~problem.reversible):
        negative |= values[:, j] < 0
    failing = np.flatnonzero(bad | negative)
    if failing.size:
        i = int(failing[0])
        support = [problem.names[j] for j in np.flatnonzero(values[i] != 0)]
        what = "is not a steady state" if bad[i] else (
            "has a negative irreversible flux"
        )
        raise AlgorithmError(
            f"mode {i} (support {support}) {what}: certification failed"
        )
    return n


def build_problem(
    network: MetabolicNetwork,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    force_last: Sequence[str] = (),
    free_hint: Sequence[str] = (),
) -> NullspaceProblem:
    """Prepare a problem from a (typically compressed) network.

    ``force_last`` lists reaction names that must occupy the *bottom* rows,
    in the given order (the last listed name becomes the very last row) —
    the divide-and-conquer driver uses this to pin its partitioning
    reactions (Algorithm 3 line 11).

    ``free_hint`` lists reactions preferred for the identity (free) block —
    used to reproduce the paper's worked example verbatim; they must be
    irreversible.
    """
    n = stoichiometric_matrix(network)
    rev = np.array(network.reversibility, dtype=bool)
    return problem_from_matrices(
        n,
        rev,
        network.reaction_names,
        options=options,
        force_last=force_last,
        free_hint=free_hint,
    )


def problem_from_matrices(
    n: np.ndarray,
    reversible: np.ndarray,
    names: Sequence[str],
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    force_last: Sequence[str] = (),
    free_hint: Sequence[str] = (),
    basis: np.ndarray | None = None,
    identity_form: tuple[np.ndarray, np.ndarray] | None = None,
) -> NullspaceProblem:
    """Prepare a problem from a raw stoichiometry (input column order).

    ``basis``, when given, is an exact integer basis of ``ker n`` (``(q,
    d)``, input column order); the ``(I; R)`` kernel is then read off it
    (:func:`~repro.linalg.numeric.identity_form_from_basis`) instead of
    eliminating ``n`` — the divide-and-conquer subsets derive theirs from
    the parent network's kernel.  The problem is the same either way.
    ``identity_form``, when given, is that ``(kernel, col_perm)`` form
    itself, already known under these pivot priorities (a split subset's,
    read off its unsplit form), and nothing is eliminated.

    Raises :class:`~repro.errors.NoModesError` when the stoichiometry has
    full column rank (no modes exist).
    """
    n = np.asarray(n, dtype=np.float64)
    reversible = np.asarray(reversible, dtype=bool)
    names = tuple(names)
    q = n.shape[1]
    if reversible.shape != (q,) or len(names) != q:
        raise AlgorithmError("stoichiometry/reversibility/names size mismatch")
    if basis is not None and basis.shape[0] != q:
        raise AlgorithmError("kernel basis/stoichiometry size mismatch")
    if len(set(names)) != q:
        raise AlgorithmError("duplicate reaction names")
    for fname in force_last:
        if fname not in names:
            raise AlgorithmError(f"force_last reaction {fname!r} not in network")
    for fname in free_hint:
        if fname not in names:
            raise AlgorithmError(f"free_hint reaction {fname!r} not in network")
        if reversible[names.index(fname)]:
            raise AlgorithmError(
                f"free_hint reaction {fname!r} is reversible; the identity "
                "block must consist of irreversible reactions"
            )

    # Reversible reactions must become pivots (processed rows); a reversible
    # reaction in the identity block would never pair its negative fluxes.
    # Divide-and-conquer partition reactions (force_last) need sign
    # diversity at their rows for the same reason, so they get pivot
    # priority too (-2: even ahead of plain reversibles).  Reactions named
    # in free_hint are pushed the other way.
    force_idx = [names.index(f) for f in force_last]
    pivot_priority = np.zeros(q, dtype=np.int8)
    pivot_priority[reversible] = -1  # scan first -> pivots
    pivot_priority[force_idx] = -2
    pivot_priority[[names.index(f) for f in free_hint]] = 1  # scan last -> free

    if identity_form is not None:
        kernel0, col_perm = identity_form
    elif basis is None:
        kernel0, col_perm = kernel_identity_form(n, pivot_priority=pivot_priority)
    else:
        kernel0, col_perm = identity_form_from_basis(
            basis, pivot_priority=pivot_priority
        )
    n_free = kernel0.shape[1]
    if n_free == 0:
        raise NoModesError("stoichiometry has a trivial nullspace: no modes exist")
    free_names = {names[int(c)] for c in col_perm[:n_free]}
    forced_free = [f for f in force_last if f in free_names and reversible[names.index(f)]]
    if forced_free:
        raise DependentPartitionError(
            f"partition reactions {forced_free} are reversible but linearly "
            "dependent on the other pivot columns; their rows cannot carry "
            "negative entries and the zero/non-zero subset split would be "
            "incomplete"
        )
    rev_free = sorted(
        f for f in free_names if reversible[names.index(f)] and f not in force_last
    )
    if rev_free:
        raise ReversibleIdentityError(
            "the nullspace dimension exceeds the number of linearly "
            "independent irreversible reactions; reversible reactions "
            f"{rev_free} would land in the identity block and their "
            "negative-flux modes would be lost.  Split them into "
            "irreversible forward/backward pairs first "
            "(repro.efm.split_reversible, or compute_efms(auto_split=True)).",
            reactions=tuple(rev_free),
            identity_form=(kernel0, col_perm),
        )

    # Bake the static row permutation into the problem.  Under
    # ordering="dynamic" this is only the candidate-set *layout* (and the
    # planning surrogate's order) — the processed order is chosen at run
    # time by the RowSelector each driver consults; the permutation must
    # still be computed here so the problem's matrices, names and D&C
    # pinned positions agree across orderings.
    rev_perm0 = reversible[col_perm]
    tail_order = order_rows(kernel0, rev_perm0, n_free, options)
    base = np.concatenate([np.arange(n_free), tail_order])

    first_row = n_free
    if force_last:
        name_pos = {names[col_perm[p]]: i for i, p in enumerate(base)}
        forced_base_positions = [name_pos[f] for f in force_last]
        forced_set = set(forced_base_positions)
        rest = [i for i in range(q) if i not in forced_set]
        new_order = np.array(rest + forced_base_positions, dtype=np.intp)
        base = base[new_order]
        # If any forced reaction sat in the identity block, the block
        # structure is broken and every row must be processed.
        if any(p < n_free for p in forced_base_positions):
            first_row = 0

    perm = col_perm[base]
    return NullspaceProblem(
        n_perm=np.ascontiguousarray(n[:, perm]),
        kernel=np.ascontiguousarray(kernel0[base, :]),
        reversible=reversible[perm].copy(),
        names=tuple(names[int(i)] for i in perm),
        perm=np.asarray(perm, dtype=np.intp),
        n_free=n_free,
        rank=q - n_free,
        first_row=first_row,
    )
