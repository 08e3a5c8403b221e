"""The combinatorial adjacency test of the double description method: the
oracle of the rank test.

The paper accepts a candidate by the algebraic rank test of its ref. [18]
(``nullity(N[:, supp]) == 1``).  efmtool (ref. [19], Terzer & Stelling
2008) accepts a *pair* of current modes instead by a bit-pattern test: the
pair is adjacent iff no third current mode's zero set, over the rows
processed so far, contains the intersection of the parents' zero sets.
On a pointed cone — every processed row irreversible — both tests accept
the same rays, so this module runs Algorithm 1 with the adjacency test as
an independent check of the program's rank path:

* :func:`subset_count_rows`, :func:`processed_rows_mask` and
  :class:`AdjacencyTest` are the bit-pattern test itself;
* :func:`adjacency_nullspace_algorithm` is Algorithm 1 on a fully split,
  irreversible problem: each pair is accepted by adjacency, no rank test
  runs, and the test masks on the rows the driver has itself processed
  (rows are chosen by the run's ordering, or replayed from ``row_order``);
* :func:`use_adjacency_oracle` / :func:`solve_with_adjacency_oracle`
  patch it into ``compute_efms``'s serial path, which then splits every
  reversible reaction up front and folds the split back, so a whole solve
  can be repeated on it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import DEFAULT_OPTIONS
from repro.core.candidates import full_range, survivor_chunks
from repro.core.kernel import NullspaceProblem, build_problem
from repro.core.ordering import RowSelector
from repro.core.serial import NullspaceResult
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, RunStats
from repro.efm import api
from repro.efm.splitting import split_reversible
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports, pack_support_rows


def subset_count_rows(candidates: np.ndarray, references: np.ndarray) -> np.ndarray:
    """For each packed candidate row, count the reference rows that are
    subsets of it (``ref & cand == ref``), in bounded chunks."""
    n_c = candidates.shape[0]
    n_r = references.shape[0]
    out = np.zeros(n_c, dtype=np.int64)
    if n_c == 0 or n_r == 0:
        return out
    chunk = max(1, int(4_000_000 // max(1, n_r * candidates.shape[1])))
    for start in range(0, n_c, chunk):
        cs = candidates[start : start + chunk]
        hit = ((references[None, :, :] & cs[:, None, :]) == references[None, :, :]).all(
            axis=2
        )
        out[start : start + chunk] = hit.sum(axis=1)
    return out


def processed_rows_mask(n_rows: int, upto_position: int) -> np.ndarray:
    """Packed word mask selecting support bits of rows ``0..upto_position-1``
    (exclusive of ``upto_position``).

    The adjacency test only 'sees' the inequality constraints processed
    *before* the current row.  Including later rows (or the in-flight
    row) makes it disagree with the rank test in both directions:
    non-elementary survivors and falsely rejected modes.
    """
    mask_bits = np.zeros((n_rows, 1), dtype=bool)
    mask_bits[:upto_position, 0] = True
    return bitset.pack_supports(mask_bits)[0]


class AdjacencyTest:
    """The combinatorial (bit-pattern) adjacency test of the double
    description method, as used by efmtool [19].

    A pair ``(p, n)`` of current modes is *adjacent* — and its combination
    a new elementary mode — iff no **third** current mode's zero set (over
    the processed rows) contains ``Z(p) ∩ Z(n)``.  In support language:
    counting current modes whose masked support is a subset of
    ``supp(p) | supp(n)`` must find exactly the two parents.  It is a
    per-*pair* test, so it runs before duplicate removal.

    ``processed`` lists the row positions whose constraints the test may
    "see": the identity block plus every row eliminated *before* the
    current one.  Without it, the prefix ``0..k-1`` is used, which is the
    processed set only when rows are eliminated in position order.
    """

    __slots__ = ("refs", "mask")

    def __init__(
        self,
        current_words: np.ndarray,
        n_rows: int,
        k: int,
        processed: np.ndarray | None = None,
    ) -> None:
        if processed is None:
            self.mask = processed_rows_mask(n_rows, k)
        else:
            mask_bits = np.zeros((n_rows, 1), dtype=bool)
            mask_bits[np.asarray(processed, dtype=np.intp), 0] = True
            self.mask = bitset.pack_supports(mask_bits)[0]
        self.refs = current_words & self.mask[None, :]

    def adjacent(self, pair_union_words: np.ndarray) -> np.ndarray:
        """Boolean mask over pairs; ``pair_union_words[i]`` is the bitwise
        OR of the two parents' (unmasked) support words."""
        masked = pair_union_words & self.mask[None, :]
        return subset_count_rows(masked, self.refs) == 2


def _adjacent_candidates(
    modes: ModeMatrix, k: int, processed: list[int], rank_bound: int
) -> CandidateBatch:
    """Row ``k``'s candidates from adjacent pairs, keep-first deduplicated
    (among themselves and against the zero-entry modes)."""
    signs = modes.sign_column(k)
    pos = np.flatnonzero(signs > 0)
    neg = np.flatnonzero(signs < 0)
    words = modes.supports.words
    test = AdjacencyTest(words, modes.q, k, processed=np.array(processed))
    parts = []
    for i_ok, j_ok, raw, _ in survivor_chunks(
        modes, k, pos, neg, full_range(pos.size * neg.size), rank_bound,
        DEFAULT_OPTIONS, IterationStats(position=k, reaction="", reversible=False),
    ):
        adj = test.adjacent(words[i_ok] | words[j_ok])
        parts.append((pack_support_rows(raw[adj] != 0), i_ok[adj], j_ok[adj]))
    if not parts:
        return CandidateBatch.empty(modes.q, k)
    cand = CandidateBatch._from_parts(
        PackedSupports(np.concatenate([p[0] for p in parts]), modes.q),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        k,
    ).dedup()
    seen = bitset.rows_in(cand.supports.words, words[signs == 0])
    return cand.select(np.flatnonzero(~seen))


def adjacency_nullspace_algorithm(
    problem: NullspaceProblem,
    *,
    options=DEFAULT_OPTIONS,
    context=None,
    row_order=None,
    **_ignored,
) -> NullspaceResult:
    """Drop-in for :func:`repro.core.serial.nullspace_algorithm` (full
    runs of irreversible problems only) that accepts candidates by
    :class:`AdjacencyTest` and never runs the rank test.

    Rows come from a :class:`~repro.core.ordering.RowSelector` under the
    run's ordering (the context's options win over ``options``), or, with
    ``row_order``, in that explicit order.
    """
    if context is not None:
        options = context.options
    window = problem.reversible[problem.first_row :]
    if window.any():
        raise ValueError(
            "the adjacency test needs irreversible processed rows; split "
            "every reversible reaction first"
        )
    t0 = time.perf_counter()
    modes = ModeMatrix.from_kernel(problem.kernel)
    pending = None if row_order is None else [int(r) for r in row_order]
    selector = RowSelector(problem, problem.q, options) if pending is None else None
    processed = list(range(problem.first_row))
    while selector.has_next() if selector is not None else pending:
        k = selector.next_row(modes) if selector is not None else pending.pop(0)
        modes.widen_for_row(k)
        cand = _adjacent_candidates(modes, k, processed, problem.rank)
        kept = modes.select(np.flatnonzero(modes.sign_column(k) >= 0))
        modes = kept.concat(cand.materialize(modes.values)) if cand.n_modes else kept
        processed.append(k)
    return NullspaceResult(
        problem=problem,
        modes=modes,
        stats=RunStats(t_total=time.perf_counter() - t0),
        stopped_at=problem.q,
    )


def split_every_reversible(reduced, options=DEFAULT_OPTIONS, auto_split=True):
    """``(problem, split record or None)``: the kernel problem of ``reduced``
    with every reversible reaction split up front, so it is fully
    irreversible (a drop-in for ``build_problem_with_split``)."""
    names = tuple(r.name for r in reduced.reactions if r.reversible)
    if not names:
        return build_problem(reduced, options=options), None
    rec = split_reversible(reduced, names)
    return build_problem(rec.split, options=options), rec


def use_adjacency_oracle(monkeypatch) -> None:
    """Route ``compute_efms(method="serial")`` through the oracle for the
    lifetime of ``monkeypatch`` (a pytest ``MonkeyPatch``)."""
    monkeypatch.setattr(api, "build_problem_with_split", split_every_reversible)
    monkeypatch.setattr(api, "nullspace_algorithm", adjacency_nullspace_algorithm)


def solve_with_adjacency_oracle(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the serial driver on the oracle."""
    with pytest.MonkeyPatch.context() as m:
        use_adjacency_oracle(m)
        return fn(*args, **kwargs)


def realized_order(result: NullspaceResult) -> list[int]:
    """The row positions a program run eliminated, in elimination order."""
    return [it.position for it in result.stats.iterations]


def mode_rows(result: NullspaceResult) -> list[tuple[int, ...]]:
    """A run's modes as sorted coprime integer rows, for exact set
    comparison of two runs on the same problem."""
    return sorted(map(tuple, result.modes.values.tolist()))
