"""Modeled timing: converting measured work counts into platform seconds.

The bulk-synchronous cost model: each iteration costs its slowest rank
(per-phase max across ranks), and phase times are work / per-core rate
from a :class:`~repro.cluster.platform.PlatformSpec`.  The communicate
phase replays the traced bytes/messages against the interconnect's
latency/bandwidth; the merge phase scales mildly with the rank count
(merging P locally sorted candidate streams)."""

from __future__ import annotations

import dataclasses
import math

from repro.core.stats import RunStats
from repro.cluster.platform import PlatformSpec
from repro.mpi.tracing import CommTrace

def _rank_test_work(it) -> int:
    """Candidates the paper's ``RankTests`` phase tests in one iteration:
    every deduplicated candidate, including those this implementation's
    zero-mode subset pre-screen rejects before its rank kernel."""
    return it.n_tested + it.n_superset_rejected


@dataclasses.dataclass(frozen=True)
class ModeledTimes:
    """Per-phase modeled seconds of one parallel run."""

    gen_cand: float
    rank_test: float
    communicate: float
    merge: float

    @property
    def total(self) -> float:
        return self.gen_cand + self.rank_test + self.communicate + self.merge

    def as_dict(self) -> dict[str, float]:
        return {
            "gen_cand": self.gen_cand,
            "rank_test": self.rank_test,
            "communicate": self.communicate,
            "merge": self.merge,
            "total": self.total,
        }


def model_run(
    rank_stats: list[RunStats],
    rank_traces: list[CommTrace],
    platform: PlatformSpec,
) -> ModeledTimes:
    """Model a combinatorial-parallel run from per-rank statistics."""
    n_ranks = len(rank_stats)
    n_iter = len(rank_stats[0].iterations)
    gen = rank_t = merge_work = 0.0
    for i in range(n_iter):
        its = [s.iterations[i] for s in rank_stats]
        gen += max(it.n_pairs for it in its) / platform.pair_rate
        rank_t += max(_rank_test_work(it) for it in its) / platform.ranktest_rate
        # Every rank merges the full gathered candidate set plus carries
        # its replica forward; P-way merge costs a log-ish factor.
        total_accepted = sum(it.n_accepted for it in its)
        merge_work += total_accepted * (1.0 + 0.25 * math.log2(max(2, n_ranks)))
        merge_work += its[0].n_modes_end * 0.05  # replica bookkeeping
    comm = max((platform.t_communicate(tr) for tr in rank_traces), default=0.0)
    return ModeledTimes(
        gen_cand=gen,
        rank_test=rank_t,
        communicate=comm if n_ranks > 1 else 0.0,
        merge=merge_work / platform.merge_rate,
    )


def model_serial(stats: RunStats, platform: PlatformSpec) -> ModeledTimes:
    """Model a one-rank run (no communication)."""
    gen = sum(it.n_pairs for it in stats.iterations) / platform.pair_rate
    rank_t = (
        sum(_rank_test_work(it) for it in stats.iterations) / platform.ranktest_rate
    )
    merge = sum(it.n_accepted + it.n_modes_end * 0.05 for it in stats.iterations)
    return ModeledTimes(
        gen_cand=gen,
        rank_test=rank_t,
        communicate=0.0,
        merge=merge / platform.merge_rate,
    )
