"""Tabular export of run statistics (CSV / TSV).

The paper's analysis hinges on per-iteration behaviour (candidate
explosions in the last reversible rows, the memory wall near the end).
These helpers dump :class:`~repro.core.stats.RunStats` to delimited text
so runs can be inspected in a spreadsheet or plotted without custom code.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TextIO

from repro.core.stats import RunStats

#: Exported per-iteration columns, in order.
ITERATION_COLUMNS = (
    "position",
    "reaction",
    "reversible",
    "n_pos",
    "n_neg",
    "n_zero",
    "sel_score",
    "sel_evaluated",
    "n_pairs",
    "n_prefilter_kept",
    "n_duplicates",
    "n_superset_rejected",
    "n_tested",
    "n_accepted",
    "n_rank_cache_hits",
    "n_rank_batches",
    "rank_batch_max",
    "n_rank_modular",
    "n_rank_fallback",
    "n_rank_unit_members",
    "n_int_switches",
    "candidate_bytes",
    "prefilter_bytes",
    "n_chunks",
    "peak_chunk_bytes",
    "n_dedup_probes",
    "n_neg_removed",
    "n_modes_end",
    "t_gen_cand",
    "t_rank_test",
    "t_communicate",
    "t_merge",
)


def dump_stats(stats: RunStats, fp: TextIO, *, delimiter: str = ",") -> None:
    """Write one row per iteration plus a ``# totals`` comment trailer."""
    writer = csv.writer(fp, delimiter=delimiter, lineterminator="\n")
    writer.writerow(ITERATION_COLUMNS)
    for it in stats.iterations:
        writer.writerow([getattr(it, col) for col in ITERATION_COLUMNS])
    fp.write(
        f"# totals: candidates={stats.total_candidates} "
        f"rank_tests={stats.total_rank_tests} efms={stats.n_efms} "
        f"t_total={stats.t_total:.6f}\n"
    )


def dumps_stats(stats: RunStats, *, delimiter: str = ",") -> str:
    buf = io.StringIO()
    dump_stats(stats, buf, delimiter=delimiter)
    return buf.getvalue()


def save_stats(stats: RunStats, path: str | Path, *, delimiter: str = ",") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        dump_stats(stats, fp, delimiter=delimiter)


def load_stats_rows(fp: TextIO, *, delimiter: str = ",") -> list[dict]:
    """Read a stats CSV back as dictionaries (numbers parsed)."""
    rows: list[dict] = []
    reader = csv.DictReader(
        (line for line in fp if not line.startswith("#")), delimiter=delimiter
    )
    for raw in reader:
        row: dict = {}
        for key, val in raw.items():
            if key in ("reaction",):
                row[key] = val
            elif key == "reversible":
                row[key] = val == "True"
            elif key.startswith("t_"):
                row[key] = float(val)
            else:
                row[key] = int(val)
        rows.append(row)
    return rows
