"""The whole-set candidate phase: parity oracle for the streamed one.

The paper's iteration body runs three whole-set phases — generate every
candidate, then ``Sort&RemoveDuplicates``, then ``RankTests`` — so one
iteration's surviving candidate set exists at once.
:func:`repro.core.iterstream.stream_iteration` runs the same phases chunk
by chunk and must return bit-identical candidates.  This module keeps the
whole-set form as the reference:

* :func:`generate_candidates` collects one iteration's generation
  survivors as a support-only :class:`~repro.core.state.CandidateBatch`
  or, "eager", as an :class:`EagerBatch` that also carries every
  candidate's dense row, formed and gcd-reduced at generation;
* :func:`batch_iteration` is a drop-in replacement for
  ``stream_iteration`` (generate all → dedup all → rank-test all);
* :func:`use_batch_oracle` patches it into every driver, so any full run
  (serial, combinatorial, column-partitioned, divide-and-conquer) can be
  repeated on the whole-set body.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.config import AlgorithmOptions
from repro.core import iterstream
from repro.core.candidates import PairRange, survivor_chunks
from repro.core.ranktest import rank_test
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, PhaseTimer
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports, pack_support_rows
from repro.parallel import distributed


class EagerBatch(CandidateBatch):
    """A candidate batch that also carries its dense rows, formed from the
    pair combinations at generation and kept in sync through
    ``select``/``dedup``; :meth:`materialize` returns those rows instead
    of recomputing them from the source matrix.  Drivers ship only the
    batch part across ranks."""

    __slots__ = ("dense",)

    @classmethod
    def wrap(cls, batch: CandidateBatch, dense: ModeMatrix) -> "EagerBatch":
        out = cls.__new__(cls)
        out.supports = batch.supports
        out.pair_i = batch.pair_i
        out.pair_j = batch.pair_j
        out.row = batch.row
        out.dedup_index = None
        out.dense = dense
        return out

    def select(self, idx) -> "EagerBatch":
        return EagerBatch.wrap(super().select(idx), self.dense.select(idx))

    def concat(self, other):
        raise NotImplementedError("the whole-set body never concatenates")

    def nbytes(self) -> int:
        return super().nbytes() + self.dense.nbytes()

    def materialize(self, source_values: np.ndarray) -> ModeMatrix:
        return self.dense


def generate_candidates(
    modes: ModeMatrix,
    k: int,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    pair_range: PairRange,
    rank_bound: int,
    options: AlgorithmOptions,
    stats: IterationStats,
    *,
    deferred: bool = True,
) -> CandidateBatch:
    """Every generation survivor of row ``k`` in this worker's pair range,
    in ``options.pair_chunk`` chunks.

    ``deferred`` selects the representation: a support-only
    :class:`CandidateBatch` (supports extracted from each transient chunk,
    dense rows dropped) or an :class:`EagerBatch` that keeps each chunk's
    dense rows.
    """
    dense_chunks: list[np.ndarray] = []
    word_chunks: list[np.ndarray] = []
    i_chunks: list[np.ndarray] = []
    j_chunks: list[np.ndarray] = []

    for i_ok, j_ok, cand, transient in survivor_chunks(
        modes, k, pos_idx, neg_idx, pair_range, rank_bound, options, stats,
    ):
        mask = cand != 0
        word_chunks.append(pack_support_rows(mask))
        i_chunks.append(i_ok)
        j_chunks.append(j_ok)
        stats.prefilter_bytes = max(
            stats.prefilter_bytes,
            transient + mask.nbytes + word_chunks[-1].nbytes,
        )
        if not deferred:
            dense_chunks.append(cand)

    if not word_chunks:
        batch = CandidateBatch.empty(modes.q, k)
    else:
        batch = CandidateBatch._from_parts(
            PackedSupports(np.concatenate(word_chunks, axis=0), modes.q),
            np.concatenate(i_chunks),
            np.concatenate(j_chunks),
            k,
        )
    if deferred:
        stats.candidate_bytes = max(stats.candidate_bytes, batch.nbytes())
        return batch
    dense = (
        ModeMatrix(np.concatenate(dense_chunks, axis=0))
        if dense_chunks
        else ModeMatrix.empty(modes.q)
    )
    out = EagerBatch.wrap(batch, dense)
    stats.candidate_bytes = max(stats.candidate_bytes, out.nbytes())
    return out


def batch_iteration(
    modes: ModeMatrix,
    k: int,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    pair_range: PairRange,
    n_perm: np.ndarray,
    rank_bound: int,
    options: AlgorithmOptions,
    stats: IterationStats,
    *,
    zero_words: np.ndarray | None = None,
    rank_cache=None,
    deferred: bool = True,
) -> CandidateBatch:
    """The candidate phase as three whole-set steps; same signature and
    return contract as :func:`repro.core.iterstream.stream_iteration`."""
    if modes.widen_for_row(k):
        stats.n_int_switches += 1
    with PhaseTimer(stats, "t_gen_cand"):
        cand = generate_candidates(
            modes, k, pos_idx, neg_idx, pair_range, rank_bound, options,
            stats, deferred=deferred,
        )
    with PhaseTimer(stats, "t_merge"):
        before = cand.n_modes
        cand = cand.dedup()
        # Drop candidates identical (by support) to zero-entry modes that
        # survive into the next iteration anyway.
        if cand.n_modes and zero_words is not None and zero_words.shape[0]:
            dup = bitset.rows_in(cand.supports.words, zero_words)
            if dup.any():
                cand = cand.select(~dup)
        stats.n_duplicates += before - cand.n_modes
    stats.n_tested += cand.n_modes
    with PhaseTimer(stats, "t_rank_test"):
        accept = rank_test(
            cand,
            n_perm,
            rank_bound,
            cache=rank_cache,
            stats=stats,
        )
    return cand.select(accept)


def use_batch_oracle(monkeypatch, *, deferred: bool = True) -> None:
    """Route every driver's candidate phase through :func:`batch_iteration`
    for the lifetime of ``monkeypatch`` (a pytest ``MonkeyPatch``)."""
    body = functools.partial(batch_iteration, deferred=deferred)
    monkeypatch.setattr(iterstream, "stream_iteration", body)
    monkeypatch.setattr(distributed, "stream_iteration", body)


def run_whole_set(monkeypatch, representation: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every driver on the whole-set body and
    its candidates in the named representation: ``"deferred"``
    (support-only batches) or ``"eager"`` (dense rows formed at
    generation)."""
    with monkeypatch.context() as m:
        use_batch_oracle(m, deferred=representation == "deferred")
        return fn(*args, **kwargs)
