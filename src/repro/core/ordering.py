"""Row-processing-order heuristics for the Nullspace Algorithm.

The paper (§II.C, refs [19], [21], [23]) orders the non-identity kernel
rows by increasing number of non-zero elements, "a heuristic proven to
often improve the efficiency", and processes rows of reversible reactions
last "because ... no column is removed" when a reversible row is processed.

That static permutation is computed once, from the *initial* kernel — it
is blind to how the pos/neg column split actually evolves as candidates
accumulate.  ``ordering="dynamic"`` (the default) instead treats the
permutation returned by :func:`order_rows` as a *candidate set* layout
and defers the actual choice to run time: a :class:`RowSelector`,
consulted by every driver at the top of every iteration, scores each
remaining row from the live mode matrix and picks the cheapest one.

Cost model
----------
The paper observes that "computation time is proportional to the number
of generated intermediate elementary modes", and an iteration on row
``r`` generates exactly ``|pos(r)| * |neg(r)|`` candidate pairs.  Both
counts are computed vectorized from the mode matrix's cached int8 sign
planes (O(q·m) work per iteration, negligible next to generation
itself).  The selection key is, in order:

1. ``|pos(r)| + |neg(r)|`` — the *active-mode* count, i.e. the paper's
   static min-nonzeros heuristic made exact on the live matrix.  This is
   deliberately the primary key rather than the pair count: greedily
   minimizing the immediate pair product is myopic — it defers rows whose
   active set is still growing, and measured cumulative candidate counts
   on yeast-I-small come out *worse* than the static paper order.
   Minimizing the active count both bounds the pair product
   (``p*n <= (p+n)^2/4``) and shrinks the growth feeding later
   iterations; cumulatively it beats the static order by ~1.26x there.
2. the exact pair count ``|pos(r)| * |neg(r)|`` — tie-break among rows
   with equal active counts.
3. the row position — final deterministic tie-break.

An optional one-step lookahead (``options.selection_lookahead``
shortlisted rows) additionally simulates the candidate row's
RemoveNegColumns effect — irreversible rows drop their negative modes,
which can zero out other remaining columns entirely — and credits each
shortlisted row with the number of follow-up rows it makes *free* (fully
inactive, hence zero-pair) eliminations.

Replica consistency
-------------------
Selection is bit-deterministic: integer scores, ties broken by ascending
row position.  The replicated SPMD drivers hold identical mode matrices
at the top of every iteration, so each rank computes the same argmin
locally with zero extra communication (the scores are invariant to the
*row order* of the mode matrix, which may differ per driver — only the
mode multiset matters, and that is replica-identical).  The
column-partitioned driver shards modes and instead allgathers tiny
per-row count vectors (:meth:`RowSelector.count_matrix` /
:meth:`RowSelector.next_row_from_counts`).

Hard filters (both preserved from the static heuristics):

* *reversible-last* — reversible rows are eligible only once no
  irreversible row remains;
* *subset membership* — only rows inside the driver's
  ``[first_row, stop)`` window are ever candidates, so divide-and-conquer
  pinned rows (Proposition 1) are untouched.
"""

from __future__ import annotations

import numpy as np

from repro.config import AlgorithmOptions
from repro.errors import AlgorithmError


def order_rows(
    kernel: np.ndarray,
    reversible: np.ndarray,
    n_free: int,
    options: AlgorithmOptions,
) -> np.ndarray:
    """Permutation of the non-identity kernel rows (positions ``n_free..q-1``).

    Returns an array ``order`` of *absolute* row positions (values in
    ``[n_free, q)``) giving the processing order.  The identity-part rows
    ``0..n_free-1`` are never reordered — they are no-ops (single
    non-negative entry) and the block structure of eq. (5) keeps them on
    top.

    Heuristics
    ----------
    - ``"dynamic"``: the returned permutation is only the *static layout*
      of the candidate set (the paper heuristic — a good initial layout
      and the memory model's planning surrogate); the processed order is
      chosen at run time by the :class:`RowSelector` each driver consults.
    - ``"paper"``: irreversible rows first, each group sorted by ascending
      non-zero count (ties by position for determinism).
    - ``"natural"``: kernel order as computed.
    - ``"most-nonzeros"``: adversarial inverse of ``"paper"`` (ablation).
    - ``"random"``: seeded shuffle (ablation).
    """
    q = kernel.shape[0]
    if not (0 <= n_free <= q):
        raise AlgorithmError(f"n_free={n_free} out of range for q={q}")
    tail = np.arange(n_free, q)
    if tail.size == 0:
        return tail
    nnz = np.count_nonzero(np.asarray(kernel)[tail], axis=1).astype(np.int64)
    rev = np.asarray(reversible, dtype=bool)[tail]

    if options.ordering == "natural":
        return tail
    if options.ordering == "random":
        rng = np.random.default_rng(options.ordering_seed)
        return tail[rng.permutation(tail.size)]
    if options.ordering in ("paper", "dynamic"):
        key = np.lexsort((tail, nnz, rev.astype(np.int8)))
        return tail[key]
    if options.ordering == "most-nonzeros":
        key = np.lexsort((tail, -nnz, rev.astype(np.int8)))
        return tail[key]
    raise AlgorithmError(f"unknown ordering {options.ordering!r}")


class RowSelector:
    """Chooses the next eliminated row, one iteration at a time.

    One selector per driver run.  Static orderings replay the problem's
    baked-in permutation (positions ``first_row..stop-1`` in order);
    ``ordering="dynamic"`` scores the remaining window rows from the live
    mode matrix (see the module docstring for the cost model and the
    replica-consistency argument).  The selector records the realized
    order (:attr:`realized`) — the checkpoint manifest persists it and
    validates it on resume.

    Parameters
    ----------
    problem:
        The prepared :class:`~repro.core.kernel.NullspaceProblem`.
    stop:
        End of the selection window ``[first_row, stop)`` — Proposition
        1's early-stop position for divide-and-conquer subproblems, so
        pinned rows are never candidates.
    options:
        Supplies ``ordering`` and ``selection_lookahead``.
    processed:
        Row positions already processed (checkpoint resume).  Must be
        in-window, duplicate-free, and — for static orderings — a prefix
        of the static sequence; :class:`~repro.errors.AlgorithmError`
        otherwise.
    """

    __slots__ = (
        "problem",
        "stop",
        "options",
        "dynamic",
        "lookahead",
        "_remaining",
        "realized",
        "last_score",
        "last_evaluated",
    )

    def __init__(
        self,
        problem,
        stop: int,
        options: AlgorithmOptions,
        *,
        processed: "np.ndarray | list[int] | tuple[int, ...]" = (),
    ) -> None:
        if not (problem.first_row <= stop <= problem.q):
            raise AlgorithmError(f"selector stop {stop} out of range")
        self.problem = problem
        self.stop = int(stop)
        self.options = options
        self.dynamic = options.ordering == "dynamic"
        self.lookahead = int(options.selection_lookahead) if self.dynamic else 0
        # Window rows in static replay order (for static orderings this IS
        # the processing order; for dynamic it is only the tie-break-free
        # canonical enumeration of the candidate set).
        window = list(range(problem.first_row, self.stop))
        processed = [int(p) for p in np.asarray(processed, dtype=np.int64).ravel()]
        if processed:
            pset = set(processed)
            if len(pset) != len(processed):
                raise AlgorithmError("processed row order contains duplicates")
            bad = sorted(pset - set(window))
            if bad:
                raise AlgorithmError(
                    f"processed rows {bad} outside the selection window "
                    f"[{problem.first_row}, {self.stop})"
                )
            if not self.dynamic and processed != window[: len(processed)]:
                raise AlgorithmError(
                    f"processed row order {processed} is not a prefix of the "
                    f"static {options.ordering!r} order; the checkpoint was "
                    "written under a different ordering"
                )
            window = [r for r in window if r not in pset]
        self._remaining = window
        self.realized: list[int] = list(processed)
        #: chosen row's global |pos|*|neg| pair count at selection time
        #: (0 on static paths — the split is not known before iterate_row).
        self.last_score = 0
        #: rows scored this iteration (0 on static paths).
        self.last_evaluated = 0

    # -- introspection -------------------------------------------------------

    @property
    def n_remaining(self) -> int:
        return len(self._remaining)

    def has_next(self) -> bool:
        return bool(self._remaining)

    def remaining_rows(self) -> np.ndarray:
        """Remaining window positions, ascending (the candidate set)."""
        return np.array(sorted(self._remaining), dtype=np.int64)

    def annotate(self, it) -> None:
        """Stamp the last selection's telemetry onto an IterationStats."""
        it.sel_score = self.last_score
        it.sel_evaluated = self.last_evaluated

    # -- selection -----------------------------------------------------------

    def next_row(self, modes=None) -> int:
        """Pick, record and return the next row to eliminate.

        Static orderings need no state (``modes`` may be ``None``);
        dynamic selection scores the remaining rows from ``modes`` — the
        live :class:`~repro.core.state.ModeMatrix`, replica-identical on
        every rank of a replicated driver.
        """
        if not self._remaining:
            raise AlgorithmError("row selector exhausted")
        if not self.dynamic:
            self.last_score = 0
            self.last_evaluated = 0
            k = self._remaining.pop(0)
            self.realized.append(k)
            return k
        if modes is None:
            raise AlgorithmError("dynamic selection needs the live mode matrix")
        rows = np.array(sorted(self._remaining), dtype=np.int64)
        signs = modes.sign_matrix()[:, rows]
        n_pos = (signs > 0).sum(axis=0, dtype=np.int64)
        n_neg = (signs < 0).sum(axis=0, dtype=np.int64)
        k = self._pick(rows, n_pos, n_neg, signs=signs, modes=modes)
        self._remaining.remove(k)
        self.realized.append(k)
        return k

    def count_matrix(self, modes) -> np.ndarray:
        """This rank's local ``(2, n_remaining)`` pos/neg counts over the
        remaining rows — the column-partitioned driver allgathers these
        (tiny: two int64 per remaining row) and feeds the element-wise sum
        to :meth:`next_row_from_counts`."""
        rows = np.array(sorted(self._remaining), dtype=np.int64)
        if modes.n_modes == 0 or rows.size == 0:
            return np.zeros((2, rows.size), dtype=np.int64)
        signs = modes.sign_matrix()[:, rows]
        return np.stack(
            [
                (signs > 0).sum(axis=0, dtype=np.int64),
                (signs < 0).sum(axis=0, dtype=np.int64),
            ]
        )

    def next_row_from_counts(
        self, n_pos: np.ndarray, n_neg: np.ndarray
    ) -> int:
        """Dynamic selection from globally summed pos/neg counts (aligned
        with :meth:`remaining_rows`).  Base score only — lookahead needs
        the joint sign distribution, which sharded drivers don't hold."""
        if not self._remaining:
            raise AlgorithmError("row selector exhausted")
        rows = np.array(sorted(self._remaining), dtype=np.int64)
        n_pos = np.asarray(n_pos, dtype=np.int64)
        n_neg = np.asarray(n_neg, dtype=np.int64)
        if n_pos.shape != rows.shape or n_neg.shape != rows.shape:
            raise AlgorithmError("count vectors misaligned with remaining rows")
        k = self._pick(rows, n_pos, n_neg, signs=None, modes=None)
        self._remaining.remove(k)
        self.realized.append(k)
        return k

    def _pick(self, rows, n_pos, n_neg, *, signs, modes) -> int:
        """Deterministic argmin over the eligible rows.

        Reversible-last hard filter, selection key ``(active, pairs,
        position)`` (see module docstring), optional one-step lookahead
        over a ``selection_lookahead``-sized shortlist.  All keys are
        integers and the final tie-break is the ascending row position
        (``np.lexsort((rows, pairs, active))`` realizes exactly that), so
        the choice is bit-deterministic and replica-consistent.
        """
        rev = np.asarray(self.problem.reversible, dtype=bool)[rows]
        if not rev.all():
            eligible = np.nonzero(~rev)[0]
        else:
            eligible = np.arange(rows.size)
        active = n_pos[eligible] + n_neg[eligible]
        pairs = n_pos[eligible] * n_neg[eligible]
        order = np.lexsort((rows[eligible], pairs, active))
        self.last_evaluated = int(eligible.size)
        depth = min(self.lookahead, order.size) if signs is not None else 0
        if depth <= 1 or order.size == 1:
            best = eligible[order[0]]
            self.last_score = int(pairs[order[0]])
            return int(rows[best])
        # One-step lookahead over the shortlist: simulate the candidate
        # row's RemoveNegColumns (irreversible rows drop their negative
        # modes -- possibly zeroing other remaining columns entirely) and
        # credit the number of follow-up rows made *free* (fully
        # inactive, hence zero-pair) eliminations.  New accepted
        # candidates are unknowable a priori and deliberately ignored:
        # the credit is a deterministic estimate, identical on every
        # replica.
        shortlist = eligible[order[:depth]]
        active_all = n_pos + n_neg
        best_key = None
        best_row = -1
        for idx in shortlist:
            r = int(rows[idx])
            others = np.nonzero(rows != r)[0]
            credit = 0
            if others.size and not bool(self.problem.reversible[r]):
                # Follow-up activity = current activity minus what the
                # dropped (negative-in-``r``) modes carried; slicing only
                # the dropped rows is far cheaper than re-summing the
                # kept majority of the sign matrix.
                dropped = np.nonzero(signs[:, idx] < 0)[0]
                if dropped.size:
                    lost = np.abs(signs[np.ix_(dropped, others)]).sum(
                        axis=0, dtype=np.int64
                    )
                    follow_active = active_all[others] - lost
                else:
                    follow_active = active_all[others]
                credit = int((follow_active == 0).sum())
            key = (
                int(n_pos[idx] + n_neg[idx]) - credit,
                int(n_pos[idx] * n_neg[idx]),
                r,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_row = r
        i = int(np.nonzero(rows == best_row)[0][0])
        self.last_score = int(n_pos[i] * n_neg[i])
        return best_row

    # -- replica-consistency fingerprint -------------------------------------

    def fingerprint(self, k: int, modes) -> tuple[int, int, int]:
        """Cheap per-iteration selection fingerprint: the chosen row, the
        mode count and a word-sum digest of the support multiset (row-order
        invariant, so replicas that merely *store* their identical modes in
        different row orders agree).  Allgathered and compared only in
        debug/trace mode — production selection needs zero communication.
        """
        words = modes.supports.words
        digest = int(words.sum(dtype=np.uint64)) if words.size else 0
        return (int(k), int(modes.n_modes), digest)
