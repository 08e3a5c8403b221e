#!/usr/bin/env python3
"""Compare end-to-end benchmark reports, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py BASE1.json BASE2.json ... -- NEW1.json ...

Every file is a ``run.py --out`` report, with one workload or several.
For every (workload, end-to-end metric) pair on both sides, prints both
medians, their ratio NEW/BASE and a verdict against the bound in
``BENCHMARK.json``:

* ``unresolved`` -- the spread of either side (interquartile range over
  median) is wider than the bound, or either side has fewer than four
  values to take it from, unless every NEW value is better than every
  BASE value;
* ``regressed`` -- NEW is worse than BASE by more than the bound;
* ``ok`` -- otherwise.

A side's median is the median of its reports' values.  With four or more
reports on a side, its spread is taken between those values, as between
runs made at different times.  With fewer, it is taken over the reports'
per-round values, which cannot show host drift that lasts a whole run.

Exits 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Fewer values than this give no usable quartiles.
MIN_RUNS = 4


def spread(runs: list[float]) -> float:
    """Interquartile range over median; infinite below ``MIN_RUNS``."""
    if len(runs) < MIN_RUNS:
        return float("inf")
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def side(reports: list[dict], workload: str, name: str) -> dict | None:
    """One side's median and the values its spread is taken from."""
    entries = [
        r[workload]["e2e"][name]
        for r in reports
        if name in r.get(workload, {}).get("e2e", {})
    ]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    runs = values if len(values) >= MIN_RUNS else [x for e in entries for x in e["runs"]]
    return {"value": statistics.median(values), "runs": runs}


def verdict(base: dict, new: dict, bound: float, lower_is_better: bool) -> tuple[float, str]:
    ratio = new["value"] / base["value"]
    worse = ratio - 1 if lower_is_better else 1 / ratio - 1
    if max(spread(base["runs"]), spread(new["runs"])) > bound:
        better = (max(new["runs"]) < min(base["runs"])) if lower_is_better else (
            min(new["runs"]) > max(base["runs"])
        )
        return ratio, "ok" if better else "unresolved"
    return ratio, "regressed" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        paths = argv[:cut], argv[cut + 1:]
    else:
        paths = (argv[:1], argv[1:]) if len(argv) == 2 else ([], [])
    if not all(paths):
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (
        [json.loads(Path(p).read_text())["workloads"] for p in group] for group in paths
    )
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    workloads = list(dict.fromkeys(w for r in base for w in r))
    regressed = False
    print(f"{'workload':<10} {'metric':<18} {'base':>10} {'new':>10} {'ratio':>7}  verdict")
    for workload in workloads:
        for name, m in spec.items():
            a, b = side(base, workload, name), side(new, workload, name)
            if a is None or b is None:
                continue
            ratio, v = verdict(a, b, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            print(
                f"{workload:<10} {name:<18} {a['value']:>10.4g} {b['value']:>10.4g} "
                f"{ratio:>7.3f}  {v} (bound {m['bound']:.0%}, {m['unit']}; "
                f"spread {spread(a['runs']):.0%} / {spread(b['runs']):.0%})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
