#!/usr/bin/env python3
"""End-to-end benchmark: cold ``compute_efms`` solves on four yeast workloads.

Run from the repository root (``src`` is found relative to this file):

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out FILE]

One generator process runs a closed loop with one client.  It imports
``repro`` and builds the workload's network once, then ``os.fork()``s a
child per solve; the child runs one ``compute_efms`` call, checks the
result outside the timed region and pipes its numbers back.  Every solve
is therefore cold with respect to the program's process-level memos, as
for a user who runs one network per process.  ``setup_s`` times the
import and network build in fresh interpreters, so work moved into
import time shows there.

Each workload is measured for ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``), in rounds of one set-up probe and a few solves;
several workloads run one after another, each in its own time box.
A shared host's CPUs slow down and speed up independently within a
second, so a workload runs pinned to as many CPUs as its solve computes
on, every set-up probe and solve runs between two spin-loop probes of
those CPUs' speed, and the gated times are normalized by them.
``--trace 1`` adds one traced solve per round (layer spans recorded by
``spans.py``), and the last line then carries the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every solve was correct.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread in the generator and in every process it starts; numpy
# is imported only later.  With more, numpy's OpenBLAS starts a worker
# thread that spins after each call.  On a 2-vCPU host it shares the
# solving thread's CPU or not depending on scheduling, which put
# ``y1-serial`` solves on two levels ~0.19 s and ~0.31 s (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SOLVE_TIMEOUT_S = 120.0
#: |flux| above this is support (the tolerance of ``EFMResult.supports``).
SUPPORT_TOL = 1e-9
#: Iterations of the spin loop that probes the host's speed right before
#: and right after every solve and every set-up probe.
SPIN_N = 250_000
#: Normalized times are seconds on a host where that loop takes this long.
SPIN_REF_S = 0.010


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    network: str
    call: dict
    #: untraced solves per round (a round also runs one set-up probe).
    per_round: int
    n_efms: int
    #: SHA-256 of the sorted, sign-normalized support/sign rows.
    digest: str

    @property
    def processes(self) -> int:
        """Processes one solve computes on: its ranks, else 1."""
        return self.call.get("n_ranks", 1)


Y1_DIGEST = "ebd64ca30bf41ca5b153b3dbfbc62b987c81b67cae5c30669735ffba217c65e1"
Y2_DIGEST = "99a1c7b06865e96b99bd4db64ed64b2dc21c79b367ea413792e653c2aa06a7b6"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "y1-serial", "yeast-I-small", {"method": "serial"}, 10, 530, Y1_DIGEST,
        ),
        Workload(
            "y1-dnc5", "yeast-I-small",
            {"method": "combined", "partition": 5, "executor": "inline"}, 1, 530,
            Y1_DIGEST,
        ),
        Workload(
            "y2-serial", "yeast-II-small", {"method": "serial"}, 2, 7331, Y2_DIGEST,
        ),
        Workload(
            "y2-par2", "yeast-II-small",
            {"method": "parallel", "n_ranks": 2, "backend": "process"}, 2, 7331,
            Y2_DIGEST,
        ),
    )
}

E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Layers every workload runs, as inclusive span or RunStats seconds.
LAYER_SECONDS = {
    "network.compress_s": spans.COMPRESS,
    "core.kernel.kernel_s": spans.KERNEL,
    "core.enumerate_s": spans.ENUMERATE,
    "efm.finish_s": spans.FINISH,
}
#: Layers only some workloads run, as a share of the traced solve, so a
#: layer that does not run reads 0 % instead of a constant 0 s.
LAYER_SHARES = {
    "dnc.select_partition_pct": spans.SELECT_PARTITION,
    "dnc.prepare_pct": spans.PREPARE,
    "engine.plan_pct": spans.PLAN,
    "core.ordering.select_pct": spans.SELECT_ROW,
}
#: Per-layer metrics that are measured times (medians over traced solves);
#: the rest are counts, exact on every traced solve.
TIMED_LAYERS = {
    name for name, unit in LAYER_UNITS.items() if unit in ("s", "%")
} | {"proc.cpu_util", "parallel.rank_imbalance"}


# -- program inputs ------------------------------------------------------------


def import_repro():
    """Import the checkout's ``repro`` (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    try:
        import repro.efm.api as api  # noqa: PLC0415
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {SRC}: {exc}") from None
    if Path(api.__file__).resolve().parents[2] != SRC:
        raise SystemExit(f"imported repro from {api.__file__}, not from {SRC}")
    return api


def build_network(workload: Workload, seed: int, *, reactions: bool = False):
    """The workload's network with its metabolite order shuffled by
    ``random.Random(seed)``, and with ``reactions`` its reaction order too;
    seed 0 keeps the registry order.

    Timed solves shuffle metabolites only.  Reaction order decides the
    kernel's pivots, the row-selection tie-breaks and the D&C partition,
    so it changes the work done (see README.md) and not just its timing;
    a reaction-shuffled network is solved once per run as a check.
    """
    from repro.models.registry import get_network  # noqa: PLC0415
    from repro.network.model import MetabolicNetwork  # noqa: PLC0415

    net = get_network(workload.network)
    if seed == 0:
        return net
    rng = random.Random(seed)
    metabolites = list(net.metabolites)
    rng.shuffle(metabolites)
    reaction_list = list(net.reactions)
    if reactions:
        rng.shuffle(reaction_list)
    return MetabolicNetwork(net.name, metabolites, reaction_list)


# -- correctness -----------------------------------------------------------------


def efm_digest(result, reaction_names) -> str:
    """SHA-256 over the sorted support/sign rows of ``result`` in
    ``reaction_names`` column order, each row sign-normalized so its first
    nonzero entry is positive (a fully reversible mode may come out with
    either sign)."""
    import numpy as np  # noqa: PLC0415

    cols = [result.network.reaction_index(name) for name in reaction_names]
    flux = result.fluxes[:, cols]
    signs = np.where(np.abs(flux) > SUPPORT_TOL, np.sign(flux), 0).astype(np.int8)
    first = signs[np.arange(signs.shape[0]), (signs != 0).argmax(axis=1)]
    signs *= first[:, None]
    h = hashlib.sha256(f"{signs.shape[0]}x{signs.shape[1]}".encode())
    for row in sorted(row.tobytes() for row in signs):
        h.update(row)
    return h.hexdigest()


def check_result(result, workload: Workload, reaction_names) -> str | None:
    """``None`` when the EFM set is the pinned one, else what is wrong."""
    from repro.errors import AlgorithmError  # noqa: PLC0415

    if result.n_efms != workload.n_efms:
        return f"{result.n_efms} EFMs, expected {workload.n_efms}"
    digest = efm_digest(result, reaction_names)
    if digest != workload.digest:
        return f"EFM digest {digest} differs from the pinned {workload.digest}"
    try:
        result.validate(check_minimality=False)
    except AlgorithmError as exc:
        return f"validate: {exc}"
    return None


# -- one cold solve ----------------------------------------------------------------


def _vm_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _stats_summary(rank_stats: list[list]) -> dict:
    """Sum the ``RunStats`` of every enumeration call (ranks merged the
    way the program merges them: max times, summed counters)."""
    out = collections.Counter()
    peaks = collections.Counter()
    busy: dict[int, float] = collections.defaultdict(float)
    for ranks in rank_stats:
        merged = ranks[0]
        for other in ranks[1:]:
            merged = merged.merged_with(other)
        its = merged.iterations
        out["core.iterations"] += len(its)
        out["core.candidates"] += merged.total_candidates
        out["core.prefilter_kept"] += sum(it.n_prefilter_kept for it in its)
        out["core.duplicates"] += sum(it.n_duplicates for it in its)
        out["core.tested"] += merged.total_rank_tests
        out["core.accepted"] += sum(it.n_accepted for it in its)
        out["core.ranktest.cache_hits"] += merged.total_rank_cache_hits
        out["core.ranktest.fallbacks"] += merged.total_rank_fallback
        out["core.gen_cand_s"] += merged.t_gen_cand
        out["core.ranktest.rank_test_s"] += merged.t_rank_test
        out["mpi.communicate_s"] += merged.t_communicate
        out["mpi.merge_s"] += merged.t_merge
        out["mpi.bytes_sent"] += merged.bytes_sent
        out["mpi.wire_bytes_sent"] += merged.wire_bytes_sent
        out["mpi.messages_sent"] += merged.messages_sent
        out["mpi.ser_bytes"] += merged.ser_bytes
        for key, value in (
            ("core.peak_mode_bytes", merged.peak_mode_bytes),
            ("core.peak_candidate_bytes", merged.peak_candidate_bytes),
            ("mpi.segment_peak_bytes", merged.segment_peak_bytes),
        ):
            peaks[key] = max(peaks[key], value)
        for rank, stats in enumerate(ranks):
            busy[rank] += stats.t_gen_cand + stats.t_rank_test
    out.update(peaks)
    loads = list(busy.values())
    out["parallel.rank_imbalance"] = (
        max(loads) / statistics.fmean(loads) if loads and max(loads) > 0 else 1.0
    )
    return dict(out)


def _trace_summary(rec: spans.Recorder, root: int) -> dict:
    names = collections.Counter(s[0] for s in rec.spans)
    self_s: dict[str, float] = collections.defaultdict(float)
    for index, span in enumerate(rec.spans):
        self_s[span[0]] += rec.self_time(index)
    top: dict[str, float] = collections.defaultdict(float)
    for index in rec.children(root):
        top[rec.spans[index][0]] += rec.duration(index)
    return {
        "solve_s": rec.duration(root),
        "top_level_s": dict(top),
        "unattributed_s": rec.self_time(root),
        "layer_s": rec.layer_seconds(),
        "self_s": dict(self_s),
        "span_counts": dict(names),
        "counts": dict(rec.counts),
        "stats": _stats_summary(rec.rank_stats),
    }


def _solve_child(api, workload: Workload, net, reaction_names, traced: bool) -> dict:
    rec = root = None
    if traced:
        rec = spans.Recorder()
        spans.install(rec)
    rss0 = _vm_rss_kb()
    cpu0 = _cpu_s(resource.getrusage(resource.RUSAGE_SELF))
    t0 = time.perf_counter()
    if rec is not None:
        root = rec.open("solve")
    result = api.compute_efms(net, **workload.call)
    if rec is not None:
        rec.close(root)
    solve_s = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF)
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "solve_s": solve_s,
        "peak_rss_delta_mb": (max(own.ru_maxrss, ranks.ru_maxrss) - rss0) / 1024,
        "cpu_s": _cpu_s(own) - cpu0 + _cpu_s(ranks),
        "error": check_result(result, workload, reaction_names),
    }
    if rec is not None:
        out["trace"] = _trace_summary(rec, root)
    return out


def solve_once(api, workload: Workload, net, reaction_names, traced: bool) -> dict:
    """Fork, solve once in the child, return its sample (``error`` set on
    any failure: exception, nonzero exit, timeout or wrong result)."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the solve process
        code = 0
        try:
            os.close(rfd)
            os.setpgid(0, 0)  # a timeout kill must reach the rank processes
            sample = _solve_child(api, workload, net, reaction_names, traced)
        except BaseException:  # noqa: BLE001 - reported to the generator
            sample = {"error": traceback.format_exc()}
            code = 1
        try:
            payload = json.dumps(sample).encode()
            while payload:
                payload = payload[os.write(wfd, payload):]
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        os.setpgid(pid, pid)
    except OSError:  # the child already did it, or already exited
        pass
    chunks: list[bytes] = []
    deadline = time.monotonic() + SOLVE_TIMEOUT_S
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        if timed_out or sys.exc_info()[0] is not None:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"timed out after {SOLVE_TIMEOUT_S:.0f} s"}
    try:
        sample = json.loads(b"".join(chunks))
    except ValueError:
        sample = {"error": "no result from the solve process"}
    code = os.waitstatus_to_exitcode(status)
    if code != 0 and not sample.get("error"):
        sample["error"] = f"solve process exited with {code}"
    return sample


# -- set-up and host probes -----------------------------------------------------


def setup_probe(workload: Workload, seed: int) -> float:
    """Seconds to import ``repro.efm.api`` and build the workload's network
    in this (fresh) interpreter."""
    t0 = time.perf_counter()
    import_repro()
    build_network(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: Workload, seed: int) -> float:
    """``setup_probe`` in a fresh interpreter (with one BLAS thread, like
    the solves: see the top of this file)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def spin_probe(n: int = SPIN_N) -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i
    return time.perf_counter() - t0


def host_speed() -> float:
    """Mean over the CPUs this process may use of the spin loop's seconds
    on that CPU, each the faster of two runs.  The CPUs of a shared host
    slow down independently, so each is probed on its own."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(min(spin_probe(), spin_probe()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def host_timed(measure, *args):
    """``measure(*args)`` between two :func:`host_speed` probes: its
    result and the probes' mean."""
    before = host_speed()
    value = measure(*args)
    return value, (before + host_speed()) / 2


@contextlib.contextmanager
def pinned(n_cpus: int):
    """Keep this process, and every process it starts, on the first
    ``n_cpus`` of its CPUs, so that the host probes time the CPUs the
    solves run on."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(cpus)[:n_cpus]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def normalized(seconds: float, spin_s: float) -> float:
    """``seconds`` rescaled to a host whose spin loop takes ``SPIN_REF_S``."""
    return seconds * SPIN_REF_S / spin_s


def _loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def provenance() -> dict:
    import numpy  # noqa: PLC0415

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- the run ----------------------------------------------------------------------


def _layer_values(tr: dict) -> dict:
    """The per-layer metrics of one traced solve (all but the ones that
    compare with the untraced solves)."""
    st, solve, layer_s = tr["stats"], tr["solve_s"], tr["layer_s"]
    m = {name: layer_s.get(span, 0.0) for name, span in LAYER_SECONDS.items()}
    m.update(
        {name: 100 * layer_s.get(span, 0.0) / solve
         for name, span in LAYER_SHARES.items()}
    )
    m.update({name: st[name] for name in LAYER_UNITS if name in st})
    m.update(dict.fromkeys(spans.COUNTERS, 0) | tr["counts"])
    m.update(
        {
            "mpi.communicate_pct": 100 * st["mpi.communicate_s"] / solve,
            "mpi.merge_pct": 100 * st["mpi.merge_s"] / solve,
            "trace.solve_s": solve,
            "trace.unattributed_s": tr["unattributed_s"],
            "core.kernel.kernel_calls": tr["span_counts"].get(spans.KERNEL, 0),
            "core.ordering.select_calls": tr["span_counts"].get(spans.SELECT_ROW, 0),
            "core.accept_ratio": st["core.accepted"] / max(st["core.tested"], 1),
            "core.ranktest.cache_hit_ratio": (
                st["core.ranktest.cache_hits"] / max(st["core.tested"], 1)
            ),
        }
    )
    return m


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics: medians over the traced solves for times, the
    first traced solve's value for counts (``stable`` says whether every
    traced solve gave the same counts)."""
    per_solve = [_layer_values(sample["trace"]) for sample in traced]
    untraced_solve = statistics.median(s["solve_s"] for s in untraced)
    out = {}
    stable = True
    for name in per_solve[0]:
        values = [m[name] for m in per_solve]
        if name in TIMED_LAYERS:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            stable &= all(v == values[0] for v in values)
    out["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in untraced)
    out["proc.cpu_util"] = statistics.median(s["cpu_s"] / s["solve_s"] for s in untraced)
    out["trace.overhead_s"] = out["trace.solve_s"] - untraced_solve
    return {name: out[name] for name in LAYER_UNITS}, stable


def _per_round(samples: list[dict], key: str) -> list[float]:
    rounds = collections.defaultdict(list)
    for s in samples:
        rounds[s["round"]].append(s[key])
    return [statistics.median(v) for _, v in sorted(rounds.items())]


def run_workload(
    api, w: Workload, *, seed: int, seconds: float, trace: bool,
    per_round: int | None = None, log=print,
) -> dict:
    """Measure one workload for ``seconds`` and return its report entry.

    Everything runs inside the time box: with a nonzero seed, first one
    solve of the reaction-shuffled network (checked, never timed), then
    rounds of one set-up probe, ``per_round`` untraced solves (default
    ``w.per_round``) and, with ``trace``, one traced solve.  A round
    starts only when one as long as the last still fits; the first
    always runs.  Spreading the probes over the rounds exposes
    ``setup_s`` to the same host drift as the solves.

    Every set-up probe and solve runs between two host-speed probes
    (:func:`host_timed`), and the end-to-end times are normalized by
    them (:func:`normalized`); the raw times stay in the entry.
    """
    t_start = time.perf_counter()
    registry_names = build_network(w, 0).reaction_names
    net = build_network(w, seed)
    checks = []
    if seed:
        order_net = build_network(w, seed, reactions=True)
        checks.append(solve_once(api, w, order_net, registry_names, False))
    count = per_round if per_round is not None else w.per_round
    setup, samples, traced, rounds = [], [], [], []
    while True:
        t_round = time.perf_counter()
        setup_s, spin_s = host_timed(measure_setup, w, seed)
        setup.append({"round": len(rounds), "setup_s": setup_s, "spin_s": spin_s,
                      "norm_s": normalized(setup_s, spin_s)})
        spins = [spin_s]
        for is_traced in [False] * count + ([True] if trace else []):
            sample, spin_s = host_timed(
                solve_once, api, w, net, registry_names, is_traced
            )
            spins.append(spin_s)
            sample["round"] = len(rounds)
            sample["spin_s"] = spin_s
            if "solve_s" in sample:
                sample["norm_s"] = normalized(sample["solve_s"], spin_s)
            (traced if is_traced else samples).append(sample)
        wall = time.perf_counter() - t_round
        spin = statistics.median(spins)
        rounds.append({"spin_s": spin, "setup_s": setup_s, "wall_s": wall})
        log(f"{w.name} round {len(rounds) - 1}: {wall:.2f} s, "
            f"spin {spin * 1e3:.2f} ms, setup {setup_s:.3f} s")
        if time.perf_counter() - t_start + wall > seconds:
            break

    every = checks + samples + traced
    errors = [s["error"] for s in every if s.get("error")]
    good = [s for s in samples if not s.get("error")]
    good_traced = [s for s in traced if not s.get("error")]
    entry: dict = {
        "network": w.network,
        "call": w.call,
        "wall_s": time.perf_counter() - t_start,
        "attempted": len(every),
        "failed": len(errors),
        "errors": errors[:5],
        "n_solves": len(good),
        "n_traced": len(good_traced),
        "order_check_s": [s["solve_s"] for s in checks if not s.get("error")],
        "rounds": rounds,
        "setup": setup,
        "samples": [
            {k: s[k] for k in ("round", "solve_s", "spin_s", "norm_s",
                               "peak_rss_delta_mb", "cpu_s")}
            for s in good
        ],
    }
    e2e = {
        "setup_s": {
            "value": statistics.median(s["norm_s"] for s in setup),
            "runs": _per_round(setup, "norm_s"),
        }
    }
    entry["setup_raw_s"] = statistics.median(s["setup_s"] for s in setup)
    if good:
        for metric, key in (
            ("solve_norm_s_p50", "norm_s"),
            ("peak_rss_delta_mb", "peak_rss_delta_mb"),
        ):
            e2e[metric] = {
                "value": statistics.median(s[key] for s in good),
                "runs": _per_round(good, key),
            }
        entry["solve_raw_s_p50"] = statistics.median(s["solve_s"] for s in good)
        if len(good) >= 100:
            entry["solve_raw_s_p90"] = statistics.quantiles(
                [s["solve_s"] for s in good], n=10
            )[-1]
    for metric, value in e2e.items():
        value["unit"] = E2E_UNITS[metric]
    entry["e2e"] = e2e
    if good_traced and good:
        layers, stable = _layer_metrics(good_traced, good)
        entry["layers"] = {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in layers.items()
        }
        entry["counts_stable"] = stable
        entry["trace_example"] = {
            k: good_traced[0]["trace"][k]
            for k in ("solve_s", "top_level_s", "unattributed_s", "self_s")
        }
    return entry


def run_benchmark(
    names, *, seed: int = 0, seconds: float = SPEC["run_seconds"],
    trace: bool = False, per_round: int | None = None, log=print,
) -> dict:
    """Run the named workloads one after another, each for ``seconds``
    (see :func:`run_workload`), and return the report."""
    api = import_repro()
    report = {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "loadavg_before": _loadavg(),
        "workloads": {},
    }
    for name in names:
        with pinned(WORKLOADS[name].processes):
            report["workloads"][name] = run_workload(
                api, WORKLOADS[name], seed=seed, seconds=seconds, trace=trace,
                per_round=per_round, log=log,
            )
    report["loadavg_after"] = _loadavg()
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The result line: end-to-end metrics, or per-layer ones
    with ``trace``; keyed by workload when the run had several."""
    entries = report["workloads"]
    key = "layers" if trace else "e2e"
    metrics = {
        name: {
            metric: {"value": v["value"], "unit": v["unit"]}
            for metric, v in entry.get(key, {}).items()
        }
        for name, entry in entries.items()
    }
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": next(iter(metrics.values())) if len(metrics) == 1 else metrics,
    }


def print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        spins = [r["spin_s"] for r in entry["rounds"]]
        print(
            f"\n== {name}: {entry['network']} {entry['call']}  "
            f"{len(entry['rounds'])} rounds in {entry['wall_s']:.1f} s, "
            f"solves {entry['n_solves']} + traced {entry['n_traced']}, "
            f"failed {entry['failed']}/{entry['attempted']}, "
            f"spin {min(spins) * 1e3:.2f}-{max(spins) * 1e3:.2f} ms"
        )
        for err in entry["errors"]:
            print(f"   error: {err.strip().splitlines()[-1]}")
        rows = list(entry["e2e"].items()) + list(entry.get("layers", {}).items())
        for metric, v in rows:
            value = v["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"   {metric:<32} {text:>14} {v['unit']}")
        for raw in ("setup_raw_s", "solve_raw_s_p50", "solve_raw_s_p90"):
            if raw in entry:
                print(f"   {raw:<32} {entry[raw]:>14.6g} s")
    y1 = [report["workloads"].get(n, {}).get("e2e", {}) for n in ("y1-serial", "y1-dnc5")]
    if all("solve_norm_s_p50" in e for e in y1):
        ratio = y1[1]["solve_norm_s_p50"]["value"] / y1[0]["solve_norm_s_p50"]["value"]
        print(f"\nD&C q_sub=5 over unsplit serial (solve_norm_s_p50): {ratio:.2f}x")
    print(
        f"host: nproc {report['provenance']['nproc']}, loadavg "
        f"{report['loadavg_before']} -> {report['loadavg_after']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="run only this workload (repeatable); default all")
    parser.add_argument("--seed", type=int, default=0,
                        help="input-order shuffle seed (0 = registry order)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measure each workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced solves, report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full JSON report here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(WORKLOADS[args.workload[0]], args.seed))
        return 0
    report = run_benchmark(
        args.workload or list(WORKLOADS),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    print_report(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    line = result_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
