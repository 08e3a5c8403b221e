"""Per-iteration and per-run statistics of the Nullspace Algorithm.

The paper's tables report, per run: generation time, rank-test time,
communication time, merge time, total time, the total number of generated
candidate modes (Table II: 159,599,700,951 for Network I) and the final
EFM count.  Every counter needed to regenerate those rows is collected
here; the parallel drivers add communication metrics on top.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterator


@dataclasses.dataclass
class IterationStats:
    """Counters for one processed row of the mode matrix."""

    position: int
    reaction: str
    reversible: bool
    n_pos: int = 0
    n_neg: int = 0
    n_zero: int = 0
    #: pos x neg pairs formed — the paper's "generated candidate modes".
    n_pairs: int = 0
    #: pairs surviving the union-support summary rejection.
    n_prefilter_kept: int = 0
    #: candidates removed as duplicates (among candidates + vs zero columns).
    n_duplicates: int = 0
    #: candidates that reached the algebraic rank test (after dedup and
    #: the zero-mode subset pre-screen).
    n_tested: int = 0
    #: candidates the zero-mode subset pre-screen rejected before the
    #: rank test: a zero-entry survivor's support is strictly inside
    #: theirs (see repro.core.iterstream).
    n_superset_rejected: int = 0
    n_accepted: int = 0
    #: rank tests answered from the support-pattern memo.
    n_rank_cache_hits: int = 0
    #: rank-kernel batches issued (one per merged miss stack of the
    #: modular kernel, one per non-empty miss bucket of its SVD fallback).
    n_rank_batches: int = 0
    #: largest single batch handed to a rank kernel.
    rank_batch_max: int = 0
    #: rank tests certified by the modular residue-field kernel (exact
    #: fraction-free or mod-p arms).
    n_rank_modular: int = 0
    #: rank tests the modular kernel handed to its SVD fallback instead —
    #: non-rational problems, unverifiable kernels, prime disagreements.
    n_rank_fallback: int = 0
    #: complement members the modular kernel settled by the unit-row
    #: reduction (basis rows with one nonzero) instead of eliminating them.
    n_rank_unit_members: int = 0
    #: mode matrices moved from int64 to Python ints at this row because
    #: a combination could leave int64 (see ModeMatrix.widen_for_row).
    n_int_switches: int = 0
    #: peak retained candidate footprint of the iteration (bytes): the
    #: accepted candidates' packed supports and pair indices, the dedup
    #: index and the current chunk.  Transient per-chunk buffers are
    #: tracked separately in ``prefilter_bytes``.
    candidate_bytes: int = 0
    #: peak transient working set of one generation chunk (bytes): the
    #: pair-index vectors, gathered/ORed support words and prefilter mask,
    #: the dense candidate chunk (freed right after support extraction,
    #: but it exists at the peak).
    #: Add this to the retained footprint to see the true peak.
    prefilter_bytes: int = 0
    #: candidate-phase chunks processed by this rank.
    n_chunks: int = 0
    #: largest retained candidate footprint of one chunk (bytes): packed
    #: supports + pair indices.
    peak_chunk_bytes: int = 0
    #: candidates probed against the incremental dedup index
    #: (see repro.core.iterstream.SupportIndex).
    n_dedup_probes: int = 0
    #: the chosen row's global |pos|*|neg| pair count at selection time
    #: (dynamic ordering; 0 on static paths — see repro.core.ordering).
    sel_score: int = 0
    #: remaining rows the dynamic selector scored before choosing this one
    #: (0 on static paths) — the per-iteration scoring-cost counter.
    sel_evaluated: int = 0
    #: old negative-entry columns dropped (irreversible rows only).
    n_neg_removed: int = 0
    #: mode count after the iteration.
    n_modes_end: int = 0
    t_gen_cand: float = 0.0
    t_rank_test: float = 0.0
    t_merge: float = 0.0
    t_communicate: float = 0.0


@dataclasses.dataclass
class RunStats:
    """Aggregated run statistics (one rank's view, or the serial run)."""

    iterations: list[IterationStats] = dataclasses.field(default_factory=list)
    #: wall-clock of the whole run (set by the driver).
    t_total: float = 0.0
    #: bytes sent by this rank (parallel runs), logical payload sizes.
    bytes_sent: int = 0
    #: messages sent by this rank (parallel runs).
    messages_sent: int = 0
    #: peak replicated mode-matrix footprint observed (bytes).
    peak_mode_bytes: int = 0
    #: serialized bytes this rank actually produced (parallel runs) — the
    #: serialize-once transports keep this flat in fan-out where the
    #: legacy per-peer pickling grew it by P-1.
    ser_bytes: int = 0
    #: payload serializations performed by this rank.
    n_serializations: int = 0
    #: bytes physically handed to the transport by this rank (pipe
    #: writes, mailbox and slot deposits).
    wire_bytes_sent: int = 0
    #: always 0: the shared-memory allgather plane it measured is gone;
    #: kept because the end-to-end benchmark harness still reports it.
    segment_peak_bytes: int = 0

    def add(self, it: IterationStats) -> None:
        self.iterations.append(it)

    # -- table-row accessors -------------------------------------------------

    @property
    def total_candidates(self) -> int:
        """The paper's "Total # candidate modes"."""
        return sum(it.n_pairs for it in self.iterations)

    @property
    def total_rank_tests(self) -> int:
        return sum(it.n_tested for it in self.iterations)

    @property
    def total_int_switches(self) -> int:
        """Mode matrices moved from int64 to Python ints."""
        return sum(it.n_int_switches for it in self.iterations)

    @property
    def total_superset_rejected(self) -> int:
        """Candidates rejected by the zero-mode subset pre-screen."""
        return sum(it.n_superset_rejected for it in self.iterations)

    @property
    def total_rank_cache_hits(self) -> int:
        return sum(it.n_rank_cache_hits for it in self.iterations)

    @property
    def total_rank_batches(self) -> int:
        return sum(it.n_rank_batches for it in self.iterations)

    @property
    def total_rank_modular(self) -> int:
        """Rank tests certified by the modular residue-field kernel."""
        return sum(it.n_rank_modular for it in self.iterations)

    @property
    def total_rank_fallback(self) -> int:
        """Rank tests the modular kernel escalated to its SVD fallback."""
        return sum(it.n_rank_fallback for it in self.iterations)

    @property
    def total_rank_unit_members(self) -> int:
        """Complement members settled by the unit-row reduction."""
        return sum(it.n_rank_unit_members for it in self.iterations)

    @property
    def total_sel_evaluated(self) -> int:
        """Rows scored by the dynamic selector across all iterations (the
        ordering ablation's scoring-cost counter; 0 for static runs)."""
        return sum(it.sel_evaluated for it in self.iterations)

    @property
    def t_gen_cand(self) -> float:
        return sum(it.t_gen_cand for it in self.iterations)

    @property
    def t_rank_test(self) -> float:
        return sum(it.t_rank_test for it in self.iterations)

    @property
    def t_merge(self) -> float:
        return sum(it.t_merge for it in self.iterations)

    @property
    def t_communicate(self) -> float:
        return sum(it.t_communicate for it in self.iterations)

    @property
    def total_stream_chunks(self) -> int:
        """Streaming chunks processed across all iterations (0 for
        batch runs)."""
        return sum(it.n_chunks for it in self.iterations)

    @property
    def total_dedup_probes(self) -> int:
        """Candidates probed against the incremental dedup index."""
        return sum(it.n_dedup_probes for it in self.iterations)

    @property
    def peak_stream_chunk_bytes(self) -> int:
        """Largest retained single-chunk candidate footprint (streaming)."""
        return max((it.peak_chunk_bytes for it in self.iterations), default=0)

    @property
    def peak_candidate_bytes(self) -> int:
        """Largest per-iteration retained candidate-set footprint — the
        quantity the support-first pipeline exists to shrink."""
        return max((it.candidate_bytes for it in self.iterations), default=0)

    @property
    def peak_prefilter_bytes(self) -> int:
        """Largest transient generation working set (pair-chunk gathers,
        dense candidate chunk) — see
        :attr:`IterationStats.prefilter_bytes`."""
        return max((it.prefilter_bytes for it in self.iterations), default=0)

    @property
    def n_efms(self) -> int:
        return self.iterations[-1].n_modes_end if self.iterations else 0

    def phase_times(self) -> dict[str, float]:
        """The four phase rows of Tables II/III plus the total."""
        return {
            "gen_cand": self.t_gen_cand,
            "rank_test": self.t_rank_test,
            "communicate": self.t_communicate,
            "merge": self.t_merge,
            "total": self.t_total,
        }

    def merged_with(self, other: "RunStats", *, shards: bool = False) -> "RunStats":
        """Element-wise union of two ranks' stats (max times per iteration —
        the bulk-synchronous model: each superstep costs its slowest rank —
        and summed candidate counters).

        Replicas hold the same modes, so their mode counts (``n_zero``,
        ``n_neg_removed``, ``n_modes_end``) are kept once; with ``shards``
        the ranks held disjoint shards of the modes and those counts add
        up.  ``n_pos``/``n_neg`` are global counts either way.
        """

        def modes(a: int, b: int) -> int:
            return a + b if shards else a

        if len(self.iterations) != len(other.iterations):
            raise ValueError("cannot merge RunStats with different iteration counts")
        merged = RunStats(
            t_total=max(self.t_total, other.t_total),
            bytes_sent=self.bytes_sent + other.bytes_sent,
            messages_sent=self.messages_sent + other.messages_sent,
            peak_mode_bytes=max(self.peak_mode_bytes, other.peak_mode_bytes),
            ser_bytes=self.ser_bytes + other.ser_bytes,
            n_serializations=self.n_serializations + other.n_serializations,
            wire_bytes_sent=self.wire_bytes_sent + other.wire_bytes_sent,
        )
        for a, b in zip(self.iterations, other.iterations):
            merged.add(
                IterationStats(
                    position=a.position,
                    reaction=a.reaction,
                    reversible=a.reversible,
                    n_pos=a.n_pos,
                    n_neg=a.n_neg,
                    n_zero=modes(a.n_zero, b.n_zero),
                    n_pairs=a.n_pairs + b.n_pairs,
                    n_prefilter_kept=a.n_prefilter_kept + b.n_prefilter_kept,
                    n_duplicates=a.n_duplicates + b.n_duplicates,
                    n_tested=a.n_tested + b.n_tested,
                    n_superset_rejected=(
                        a.n_superset_rejected + b.n_superset_rejected
                    ),
                    n_accepted=a.n_accepted + b.n_accepted,
                    n_rank_cache_hits=a.n_rank_cache_hits + b.n_rank_cache_hits,
                    n_rank_batches=a.n_rank_batches + b.n_rank_batches,
                    rank_batch_max=max(a.rank_batch_max, b.rank_batch_max),
                    n_rank_modular=a.n_rank_modular + b.n_rank_modular,
                    n_rank_fallback=a.n_rank_fallback + b.n_rank_fallback,
                    n_rank_unit_members=(
                        a.n_rank_unit_members + b.n_rank_unit_members
                    ),
                    n_int_switches=a.n_int_switches + b.n_int_switches,
                    candidate_bytes=max(a.candidate_bytes, b.candidate_bytes),
                    prefilter_bytes=max(a.prefilter_bytes, b.prefilter_bytes),
                    n_chunks=a.n_chunks + b.n_chunks,
                    peak_chunk_bytes=max(a.peak_chunk_bytes, b.peak_chunk_bytes),
                    n_dedup_probes=a.n_dedup_probes + b.n_dedup_probes,
                    # Selection is replica-consistent, so these agree
                    # across ranks; max keeps the shared value.
                    sel_score=max(a.sel_score, b.sel_score),
                    sel_evaluated=max(a.sel_evaluated, b.sel_evaluated),
                    n_neg_removed=modes(a.n_neg_removed, b.n_neg_removed),
                    n_modes_end=modes(a.n_modes_end, b.n_modes_end),
                    t_gen_cand=max(a.t_gen_cand, b.t_gen_cand),
                    t_rank_test=max(a.t_rank_test, b.t_rank_test),
                    t_merge=max(a.t_merge, b.t_merge),
                    t_communicate=max(a.t_communicate, b.t_communicate),
                )
            )
        return merged


class PhaseTimer:
    """Tiny helper accumulating wall-clock into an IterationStats field."""

    __slots__ = ("_stats", "_field", "_t0")

    def __init__(self, stats: IterationStats, field: str) -> None:
        self._stats = stats
        self._field = field
        self._t0 = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        setattr(
            self._stats,
            self._field,
            getattr(self._stats, self._field) + time.perf_counter() - self._t0,
        )


def iter_phase_names() -> Iterator[str]:
    """Canonical phase ordering used by the table renderers."""
    yield from ("gen_cand", "rank_test", "communicate", "merge", "total")
