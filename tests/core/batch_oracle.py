"""The whole-set candidate phase: parity oracle for the streamed one.

The paper's iteration body runs three whole-set phases — generate every
candidate, then ``Sort&RemoveDuplicates``, then ``RankTests`` — so one
iteration's surviving candidate set exists at once.
:func:`repro.core.iterstream.stream_iteration` runs the same phases chunk
by chunk and must return bit-identical candidates.  This module keeps the
whole-set form as the reference:

* :func:`generate_candidates` collects one iteration's generation
  survivors, as a dense :class:`~repro.core.state.ModeMatrix` or a
  support-only :class:`~repro.core.state.CandidateBatch`;
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
from repro.core.state import CandidateBatch, ModeMatrix, canonical_support_mask
from repro.core.stats import IterationStats, PhaseTimer
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports, pack_support_rows
from repro.parallel import distributed


def generate_candidates(
    modes: ModeMatrix,
    k: int,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    pair_range: PairRange,
    rank_bound: int,
    options: AlgorithmOptions,
    stats: IterationStats,
    adjacency=None,
    *,
    deferred: bool | None = None,
) -> ModeMatrix | CandidateBatch:
    """Every generation survivor of row ``k`` in this worker's pair range,
    in ``options.pair_chunk`` chunks.

    ``deferred`` selects the representation: a support-only
    :class:`CandidateBatch` (canonical supports extracted from each
    transient chunk, dense rows dropped) or a dense :class:`ModeMatrix`.
    The default follows the arithmetic, like the streamed phase: batches
    for float modes, dense rows for exact ones.
    """
    if deferred is None:
        deferred = not modes.exact

    kept_chunks: list[np.ndarray] = []
    word_chunks: list[np.ndarray] = []
    i_chunks: list[np.ndarray] = []
    j_chunks: list[np.ndarray] = []

    for i_ok, j_ok, cand, transient in survivor_chunks(
        modes, k, pos_idx, neg_idx, pair_range, rank_bound, options, stats,
        adjacency=adjacency,
    ):
        if deferred:
            mask = canonical_support_mask(cand, modes.policy)
            word_chunks.append(pack_support_rows(mask))
            i_chunks.append(i_ok)
            j_chunks.append(j_ok)
            stats.prefilter_bytes = max(
                stats.prefilter_bytes,
                transient + mask.nbytes + word_chunks[-1].nbytes,
            )
        else:
            kept_chunks.append(cand)

    if deferred:
        if not word_chunks:
            return CandidateBatch.empty(modes.q, k, policy=modes.policy)
        batch = CandidateBatch._from_parts(
            PackedSupports(np.concatenate(word_chunks, axis=0), modes.q),
            np.concatenate(i_chunks),
            np.concatenate(j_chunks),
            k,
            modes.policy,
        )
        stats.candidate_bytes = max(stats.candidate_bytes, batch.nbytes())
        return batch
    if not kept_chunks:
        return ModeMatrix.empty(modes.q, exact=modes.exact, policy=modes.policy)
    out = ModeMatrix(np.concatenate(kept_chunks, axis=0), policy=modes.policy)
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
    adjacency=None,
    acceptance: str | None = None,
    rank_cache=None,
    deferred: bool | None = None,
) -> ModeMatrix | CandidateBatch:
    """The candidate phase as three whole-set steps; same signature and
    return contract as :func:`repro.core.iterstream.stream_iteration`."""
    if acceptance is None:
        acceptance = options.acceptance
    with PhaseTimer(stats, "t_gen_cand"):
        cand = generate_candidates(
            modes, k, pos_idx, neg_idx, pair_range, rank_bound, options,
            stats, adjacency=adjacency, deferred=deferred,
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
    if acceptance in ("rank", "both"):
        stats.n_tested += cand.n_modes
        with PhaseTimer(stats, "t_rank_test"):
            accept = rank_test(
                cand,
                n_perm,
                rank_bound,
                cache=rank_cache,
                stats=stats,
            )
        if acceptance == "both" and not accept.all():
            raise AlgorithmError(
                "adjacency test accepted a candidate the rank test "
                f"rejects at row {k} ({int((~accept).sum())} of "
                f"{cand.n_modes})"
            )
        cand = cand.select(accept)
    return cand


def use_batch_oracle(monkeypatch, *, deferred: bool | None = None) -> None:
    """Route every driver's candidate phase through :func:`batch_iteration`
    for the lifetime of ``monkeypatch`` (a pytest ``MonkeyPatch``)."""
    body = functools.partial(batch_iteration, deferred=deferred)
    monkeypatch.setattr(iterstream, "stream_iteration", body)
    monkeypatch.setattr(distributed, "stream_iteration", body)


def run_whole_set(monkeypatch, representation: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every driver on the whole-set body and
    its candidates in the named representation: ``"deferred"``
    (support-only batches) or ``"eager"`` (dense rows)."""
    with monkeypatch.context() as m:
        use_batch_oracle(m, deferred=representation == "deferred")
        return fn(*args, **kwargs)
