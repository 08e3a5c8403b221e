"""Unit tests for run statistics containers."""

import time

import pytest

from repro.core.stats import IterationStats, PhaseTimer, RunStats, iter_phase_names


def _iteration(pairs=10, tested=5, accepted=2, t_gen=0.5, screened=3):
    return IterationStats(
        position=0,
        reaction="r",
        reversible=False,
        n_pairs=pairs,
        n_tested=tested,
        n_superset_rejected=screened,
        n_accepted=accepted,
        n_modes_end=7,
        t_gen_cand=t_gen,
        t_rank_test=0.1,
        t_merge=0.01,
        t_communicate=0.02,
    )


class TestRunStats:
    def test_totals(self):
        stats = RunStats()
        stats.add(_iteration(pairs=10))
        stats.add(_iteration(pairs=32))
        assert stats.total_candidates == 42
        assert stats.total_rank_tests == 10
        assert stats.total_superset_rejected == 6
        assert stats.n_efms == 7

    def test_phase_times(self):
        stats = RunStats(t_total=1.5)
        stats.add(_iteration())
        pt = stats.phase_times()
        assert set(pt) == set(iter_phase_names())
        assert pt["gen_cand"] == pytest.approx(0.5)
        assert pt["total"] == 1.5

    def test_empty_run(self):
        assert RunStats().n_efms == 0
        assert RunStats().total_candidates == 0

    def test_merged_with_bulk_synchronous_semantics(self):
        a = RunStats(t_total=2.0, bytes_sent=10, messages_sent=1, peak_mode_bytes=100)
        b = RunStats(t_total=3.0, bytes_sent=20, messages_sent=2, peak_mode_bytes=50)
        a.add(_iteration(pairs=10, t_gen=0.5, screened=4))
        b.add(_iteration(pairs=20, t_gen=0.7, screened=1))
        merged = a.merged_with(b)
        it = merged.iterations[0]
        assert it.n_pairs == 30  # counters sum
        assert it.n_superset_rejected == 5
        assert it.t_gen_cand == pytest.approx(0.7)  # times take the max
        assert merged.t_total == 3.0
        assert merged.bytes_sent == 30
        assert merged.peak_mode_bytes == 100

    def test_merged_with_length_mismatch(self):
        a, b = RunStats(), RunStats()
        a.add(_iteration())
        with pytest.raises(ValueError):
            a.merged_with(b)


class TestPhaseTimer:
    def test_accumulates(self):
        it = IterationStats(position=0, reaction="r", reversible=False)
        with PhaseTimer(it, "t_gen_cand"):
            time.sleep(0.01)
        with PhaseTimer(it, "t_gen_cand"):
            time.sleep(0.01)
        assert it.t_gen_cand >= 0.02


class TestStreamingCounters:
    def _iter(self, chunks, peak, probes):
        return IterationStats(
            position=0, reaction="r", reversible=False,
            n_chunks=chunks, peak_chunk_bytes=peak, n_dedup_probes=probes,
        )

    def test_merged_with_semantics(self):
        a, b = RunStats(), RunStats()
        a.add(self._iter(3, 1000, 50))
        b.add(self._iter(2, 4000, 30))
        it = a.merged_with(b).iterations[0]
        assert it.n_chunks == 5  # counters sum across ranks
        assert it.peak_chunk_bytes == 4000  # peaks take the max
        assert it.n_dedup_probes == 80

    def test_run_totals(self):
        stats = RunStats()
        stats.add(self._iter(3, 1000, 50))
        stats.add(self._iter(4, 2000, 60))
        assert stats.total_stream_chunks == 7
        assert stats.total_dedup_probes == 110
        assert stats.peak_stream_chunk_bytes == 2000

    def test_csv_round_trip(self):
        from repro.bench.export import dumps_stats, load_stats_rows
        import io

        stats = RunStats()
        stats.add(self._iter(3, 1000, 50))
        rows = load_stats_rows(io.StringIO(dumps_stats(stats)))
        assert rows[0]["n_chunks"] == 3
        assert rows[0]["peak_chunk_bytes"] == 1000
        assert rows[0]["n_dedup_probes"] == 50
