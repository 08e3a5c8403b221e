"""CLI entry point: regenerate the paper's tables from the command line.

Usage::

    python -m repro.bench table2 [--network yeast-I-small] [--cores 1,2,4,8,16]
    python -m repro.bench table3 [--network yeast-I-small] [--ranks 16]
    python -m repro.bench table4 [--network yeast-II-small]
    python -m repro.bench efms --network toy [--method combined --qsub 2]
    python -m repro.bench networks
"""

from __future__ import annotations

import argparse
import sys
from typing import get_args

from repro.bench.runner import run_table2, run_table3, run_table4
from repro.cluster.platform import PLATFORMS, get_platform
from repro.efm.api import compute_efms
from repro.models.registry import get_network, list_networks
from repro.mpi.spmd import BackendName


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("table2", help="Algorithm 2 strong scaling (Table II)")
    p2.add_argument("--network", default="yeast-I-small", choices=list_networks())
    p2.add_argument("--cores", default="1,2,4,8,16")
    p2.add_argument("--platform", default="calhoun", choices=sorted(PLATFORMS))
    p2.add_argument(
        "--backend", default="sequential", choices=get_args(BackendName)
    )

    p3 = sub.add_parser("table3", help="divide-and-conquer vs unsplit (Table III)")
    p3.add_argument("--network", default="yeast-I-small", choices=list_networks())
    p3.add_argument("--ranks", type=int, default=16)
    p3.add_argument("--partition", default=None,
                    help="comma-separated reduced-network reaction names")
    p3.add_argument("--platform", default="calhoun", choices=sorted(PLATFORMS))

    p4 = sub.add_parser("table4", help="combined algorithm + memory (Table IV)")
    p4.add_argument("--network", default="yeast-II-small", choices=list_networks())
    p4.add_argument("--ranks", type=int, default=4)
    p4.add_argument("--platform", default="bluegene-p", choices=sorted(PLATFORMS))
    p4.add_argument("--capacity-fraction", type=float, default=0.7)

    pe = sub.add_parser("efms", help="compute and summarize EFMs of a network")
    pe.add_argument("--network", required=True, choices=list_networks())
    pe.add_argument("--method", default="serial",
                    choices=("serial", "parallel", "distributed", "combined"))
    pe.add_argument("--ranks", type=int, default=1)
    pe.add_argument("--qsub", type=int, default=2,
                    help="partition size for method=combined")

    sub.add_parser("networks", help="list registered networks")

    pr = sub.add_parser("report", help="regenerate all tables into one report")
    pr.add_argument("--out", default=None, help="write to a file instead of stdout")

    args = parser.parse_args(argv)

    if args.command == "report":
        from repro.bench.report import generate_report, write_report

        if args.out:
            path = write_report(args.out)
            print(f"report written to {path}")
        else:
            print(generate_report())
        return 0

    if args.command == "networks":
        for name in list_networks():
            net = get_network(name)
            print(f"{name:20s} {net.n_metabolites:3d} metabolites, "
                  f"{net.n_reactions:3d} reactions")
        return 0

    if args.command == "table2":
        cores = tuple(int(c) for c in args.cores.split(","))
        table, _ = run_table2(
            args.network, cores,
            platform=get_platform(args.platform), backend=args.backend,
        )
        print(table.render())
        return 0

    if args.command == "table3":
        partition = tuple(args.partition.split(",")) if args.partition else None
        run = run_table3(
            args.network, partition,
            n_ranks=args.ranks, platform=get_platform(args.platform),
        )
        print(run.table.render())
        return 0

    if args.command == "table4":
        run = run_table4(
            args.network,
            n_ranks=args.ranks,
            platform=get_platform(args.platform),
            capacity_fraction=args.capacity_fraction,
        )
        print(run.table.render())
        return 0

    if args.command == "efms":
        net = get_network(args.network)
        kwargs = {}
        if args.method == "combined":
            kwargs["partition"] = args.qsub
        n_ranks = args.ranks if args.method != "serial" else 1
        result = compute_efms(net, method=args.method, n_ranks=n_ranks, **kwargs)
        print(result.summary())
        if result.stats is not None:
            print(f"candidate modes: {result.stats.total_candidates:,}")
        for key in ("compression", "partition", "subsets", "split"):
            if key in result.meta:
                print(f"{key}: {result.meta[key]}")
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
