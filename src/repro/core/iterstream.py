"""The candidate phase of one iteration, streamed in bounded chunks.

The paper runs three whole-set phases per iteration — generate all
candidates, then ``Sort&RemoveDuplicates``, then ``RankTests`` — so one
iteration's entire surviving candidate set exists at once.  That set is
the paper's memory bottleneck (Algorithm 2 dies at iteration 59 on 4 GB
nodes).  :func:`stream_iteration` never builds it: the pair space is
consumed as a sequence of bounded chunks
(:func:`repro.core.candidates.survivor_chunks`), and each chunk flows

    generate → incremental dedup → subset pre-screen → rank-test → accept

to completion before the next chunk's dense values exist.  Live state
between chunks is only the accepted set plus the incremental dedup index
(:class:`SupportIndex`) of the supports seen so far.  A chunk holds at most
``min(pair_chunk, 16 MiB / per-pair transient bytes)`` pairs
(:func:`repro.cluster.memory.streaming_chunk_pairs`).

Candidates travel as a support-only
:class:`~repro.core.state.CandidateBatch` (packed support words plus
``(i, j)`` pair indices); dense reduced integer rows are recomputed once,
for accepted candidates.  Before the first chunk is formed, the source
matrix passes the int64 envelope check
(:meth:`~repro.core.state.ModeMatrix.widen_for_row`); a switch to Python
ints is counted in ``n_int_switches`` and logged.

Before the rank test, a chunk's deduplicated candidates pass the
zero-mode subset pre-screen (:func:`zero_mode_supersets`, the subset
half of the bit-pattern test of the paper's ref. [19]): a candidate
whose support strictly contains the support of a zero-entry survivor of
the current row has a second, independent kernel vector inside its
support, so its nullity is at least 2 and it is rejected without reaching
the rank kernel.  On the yeast networks this decides most
rank-test rejections with one vectorized bitset pass.  ``n_tested``
counts the survivors that reach the rank test, ``n_superset_rejected``
the candidates the pre-screen rejected.

Streaming is orthogonal to *which* row an iteration eliminates: the
:class:`~repro.core.ordering.RowSelector` picks ``k`` before the
candidate phase runs, and this engine then streams that row's pair
space.  Dynamic selection shrinks the pair space that exists, streaming
bounds how much of it is resident at once.

Chunking invariance
-------------------

The EFM output is independent of the chunk size and bit-identical to the
whole-set ``generate → dedup → rank-test`` sequence, because every stage
is order- and chunking-invariant:

* *Enumeration*: chunk granularity never reorders the pair space (see
  :func:`~repro.core.candidates.survivor_chunks`), so survivors arrive in
  the whole-set order.
* *Dedup is exact and keep-first*: within a chunk, first-occurrence
  :func:`~repro.linalg.bitset.unique_rows`; across chunks, membership in
  the index of zero-entry survivors plus every earlier chunk's
  deduplicated survivors, whatever their pre-screen or rank-test verdict.
  A later copy of any support is dropped exactly as a whole-set dedup
  drops it, so no support reaches the pre-screen or the rank test twice
  in one iteration, and the ``n_duplicates``/``n_superset_rejected``/
  ``n_tested`` counters do not depend on the chunking either.
* *Acceptance is per-candidate*: the pre-screen compares a candidate's
  support with the zero-entry survivors only — the same set for every
  chunk and, since modes are replicated, every rank — and the algebraic
  rank test depends only on the candidate's own support; neither sees
  batch composition.
* *Materialization is row-wise*: accepted candidates materialize from
  ``(i, j, row)``, row by row.

Under Algorithm 2's exchange (``untested=True``) the stream stops after
the pre-screen: every deduplicated, pre-screened survivor is held, and
the rank test runs later, once per support across all ranks
(:func:`repro.parallel._driver_common.exchange_candidates`).  The dedup
rule is the same on both paths.

All drivers enter here: the Nullspace loop (Algorithms 1 and 2) through
:func:`repro.core.serial.iterate_row`, the column-partitioned driver
streams its local pair share directly (no zero-entry preload — its
duplicate control against zero survivors is global, after the
allgather — so it also runs without the pre-screen).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.memory import streaming_chunk_pairs
from repro.config import AlgorithmOptions
from repro.core.candidates import PairRange, survivor_chunks
from repro.core.ranktest import rank_test
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, PhaseTimer
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports, pack_support_rows


class SupportIndex:
    """Appendable exact-membership index over canonical packed supports —
    the incremental dedup structure of the candidate phase.

    The candidate phase consumes the pair space chunk by chunk, so dedup
    is *incremental*: a chunk's candidates are checked against the
    zero-entry survivors and every deduplicated survivor of earlier
    chunks, then the chunk's own fresh survivors are appended before
    they are screened or tested.  Keep-first throughout, so the
    surviving candidate order — and therefore the EFM output — and the
    duplicate/tested counters are those of one whole-set
    :func:`~repro.linalg.bitset.unique_rows` dedup: a later copy of any
    support is dropped, so a rejected support is never tested again in
    the same iteration.  The index holds an iteration's unique prefilter
    survivors, one packed support (8 bytes a word) each — small next to
    the mode matrix.

    Storage is a geometrically grown ``(capacity, n_words)`` uint64
    buffer.  Probes are binary searches: each :meth:`seen` call has
    :func:`~repro.linalg.bitset.rows_in` sort the filled prefix (and the
    frozen rows) and search every probe row into them.  ``frozen`` rows
    (the zero-entry survivors' supports) are held as a borrowed read-only
    reference, not copied: they live in the iteration's mode matrix either
    way, so :meth:`nbytes` charges only the appendable buffer, the memory
    the dedup state actually adds.
    """

    __slots__ = ("n_words", "frozen", "_buf", "_n", "n_probes")

    def __init__(self, n_words: int, frozen: np.ndarray | None = None) -> None:
        self.n_words = int(n_words)
        self.frozen = (
            frozen
            if frozen is not None and frozen.shape[0]
            else np.empty((0, self.n_words), dtype=bitset.WORD)
        )
        self._buf = np.empty((0, self.n_words), dtype=bitset.WORD)
        self._n = 0
        #: candidates probed against the index (streaming stats).
        self.n_probes = 0

    def __len__(self) -> int:
        return self._n

    @property
    def words(self) -> np.ndarray:
        """The filled prefix of the buffer (read-only view semantics:
        callers must not mutate)."""
        return self._buf[: self._n]

    def nbytes(self) -> int:
        """Allocated buffer bytes (capacity, not fill — the allocation is
        what the node pays for; borrowed ``frozen`` rows are charged to
        their owner, the mode matrix)."""
        return int(self._buf.nbytes)

    def seen(self, words: np.ndarray) -> np.ndarray:
        """Boolean mask: is each row already present in the index (frozen
        reference rows or appended ones)?"""
        self.n_probes += int(words.shape[0])
        hit = bitset.rows_in(words, self.words)
        if self.frozen.shape[0]:
            hit |= bitset.rows_in(words, self.frozen)
        return hit

    def add(self, words: np.ndarray) -> None:
        """Append rows (caller guarantees they are not already present —
        :meth:`seen` filtered them; duplicates *within* ``words`` are the
        caller's responsibility too, via first-occurrence dedup)."""
        m = int(words.shape[0])
        if m == 0:
            return
        need = self._n + m
        if need > self._buf.shape[0]:
            cap = max(need, 2 * self._buf.shape[0], 64)
            grown = np.empty((cap, self.n_words), dtype=bitset.WORD)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : need] = words
        self._n = need


def zero_mode_supersets(words: np.ndarray, zero_words: np.ndarray) -> np.ndarray:
    """The zero-mode subset pre-screen: for each packed candidate support,
    is some zero-entry survivor's support a subset of it?

    A zero-entry survivor ``z`` with ``supp(z) ⊊ supp(c)`` is a second
    kernel vector on the candidate's support, independent of ``c``, so
    ``nullity(N[:, supp(c)]) >= 2`` and the rank test would reject ``c``
    — on reversible rows too, since only linear independence is used.
    The broadcast transient is capped at the rank test's transient budget
    (:data:`repro.linalg.bitset.TRANSIENT_BYTES`).
    """
    return bitset.subset_rows(words, zero_words)


def stream_iteration(
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
    untested: bool = False,
) -> CandidateBatch:
    """Run one iteration's candidate phase as a bounded-memory stream.

    Returns this worker's accepted candidates as a support-only
    :class:`~repro.core.state.CandidateBatch`, in pair enumeration order.
    ``modes`` may move to Python ints on the way (see
    :meth:`~repro.core.state.ModeMatrix.widen_for_row`), so callers
    materialize from ``modes.values`` read after this returns.  The live
    :class:`SupportIndex` is attached to the result
    as ``dedup_index`` so memory accounting
    (``nbytes``/``payload_nbytes``) sees the streaming state for as long
    as the caller keeps the candidates around.

    ``zero_words`` preloads the index with the zero-entry survivors'
    supports (the serial/combinatorial duplicate rule and the pre-screen's
    reference set; the distributed driver passes ``None`` and keeps its
    global post-allgather control).  Timings land in the paper's phase
    buckets: generation in ``t_gen_cand``, dedup/accept bookkeeping in
    ``t_merge``, the subset pre-screen and the rank test in
    ``t_rank_test``.

    ``untested`` skips the rank test: the result is every deduplicated
    survivor of the pre-screen, in the same order, for Algorithm 2's
    exchange to rank-test once across all ranks.
    """
    if modes.widen_for_row(k):
        stats.n_int_switches += 1
        _log_int_switch(k, modes.n_modes)
    n_words = modes.supports.words.shape[1]
    index = SupportIndex(n_words, frozen=zero_words)

    acc_words: list[np.ndarray] = []
    acc_i: list[np.ndarray] = []
    acc_j: list[np.ndarray] = []
    acc_bytes = 0

    gen = survivor_chunks(
        modes, k, pos_idx, neg_idx, pair_range, rank_bound, options, stats,
        chunk_pairs=streaming_chunk_pairs(modes.q, options.pair_chunk),
    )
    while True:
        # Pull the next survivor chunk; the pair enumeration and
        # prefilter run inside the generator, so their cost lands in the
        # generation bucket.
        with PhaseTimer(stats, "t_gen_cand"):
            item = next(gen, None)
        if item is None:
            break
        i_ok, j_ok, raw, _transient = item
        stats.n_chunks += 1

        with PhaseTimer(stats, "t_merge"):
            words = pack_support_rows(raw != 0)
            chunk_bytes = int(words.nbytes + i_ok.nbytes + j_ok.nbytes)
            del raw  # the dense chunk dies before the next one is generated
            stats.peak_chunk_bytes = max(stats.peak_chunk_bytes, chunk_bytes)
            stats.candidate_bytes = max(
                stats.candidate_bytes, acc_bytes + index.nbytes() + chunk_bytes
            )
            # Keep-first dedup: within the chunk, then against the
            # zero-entry survivors and every earlier chunk's survivors.
            _, first = bitset.unique_rows(words)
            n_dup = words.shape[0] - len(first)
            if n_dup:
                words = words[first]
                i_ok = i_ok[first]
                j_ok = j_ok[first]
            fresh = ~index.seen(words)
            n_seen = int(words.shape[0] - fresh.sum())
            if n_seen:
                words = words[fresh]
                i_ok = i_ok[fresh]
                j_ok = j_ok[fresh]
            stats.n_duplicates += n_dup + n_seen
            # Every fresh support is indexed before it is screened or
            # tested, so a later copy is a duplicate whatever its verdict.
            index.add(words)
            cand = CandidateBatch._from_parts(
                PackedSupports(words, modes.q), i_ok, j_ok, k
            )
        if cand.n_modes == 0:
            continue

        with PhaseTimer(stats, "t_rank_test"):
            # Equal supports were dropped above as duplicates, so every
            # pre-screen hit is a strict subset.
            keep = ~zero_mode_supersets(cand.supports.words, index.frozen)
            live = np.flatnonzero(keep)
            stats.n_superset_rejected += cand.n_modes - live.size
            if live.size and not untested:
                stats.n_tested += live.size
                keep[live] = rank_test(
                    cand if live.size == cand.n_modes else cand.select(live),
                    n_perm,
                    rank_bound,
                    cache=rank_cache,
                    stats=stats,
                )
        if not keep.all():
            cand = cand.select(np.flatnonzero(keep))

        with PhaseTimer(stats, "t_merge"):
            if cand.n_modes:
                acc_words.append(cand.supports.words)
                acc_i.append(cand.pair_i)
                acc_j.append(cand.pair_j)
                acc_bytes += cand.nbytes()

    stats.n_dedup_probes += index.n_probes
    stats.candidate_bytes = max(stats.candidate_bytes, acc_bytes + index.nbytes())
    with PhaseTimer(stats, "t_merge"):
        if acc_words:
            out = CandidateBatch._from_parts(
                PackedSupports(np.concatenate(acc_words, axis=0), modes.q),
                np.concatenate(acc_i),
                np.concatenate(acc_j),
                k,
            )
        else:
            out = CandidateBatch.empty(modes.q, k)
        out.dedup_index = index
    return out


def _log_int_switch(k: int, n_modes: int) -> None:
    import logging  # noqa: PLC0415 - only a run past the int64 envelope logs

    logging.getLogger(__name__).info(
        "row %d: %d mode rows moved from int64 to Python ints", k, n_modes
    )
