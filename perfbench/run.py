#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy. The command generates its
inputs from ``--seed``, sets up, runs closed-loop passes with one client for
``--seconds`` seconds (at least two passes), checks every output, and prints
a human-readable summary, one ``{"detail": ...}`` JSON line and, last, the
result line ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced passes alternate, the workload's per-layer probes run
once, and the metrics are the per-layer ones, tracing overhead included.
The exit code is 0 only when every operation succeeded and every check
passed; it is 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.common import PassResult, child_env, summary  # noqa: E402
from perfbench.tracing import NullTracer, Tracer  # noqa: E402

# BLAS stays single-threaded, so the single client uses at most one core
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORT_PROBES = 3
PROBE_RUN = -1

WORKLOADS = ("paper_cli", "auction_mc", "analytics_long")
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
# workload metrics, printed with their sample counts in the detail line
WORKLOAD_METRICS = {
    "paper_cli": {"cli_run_s": "s"},
    "auction_mc": {"auction_small_per_s": "1/s", "auction_large_s": "s"},
    "analytics_long": {"calendar_s": "s", "event_study_s": "s", "panel_fit_s": "s"},
}
LAYERS = ("cli", "market_data", "auction_engine", "premiums", "activity", "panel")
SUBCOMMANDS = ("ingest", "report", "event-study", "fmpi", "regress", "simulate")
# per-call self times: the span named like the metric without "_s"
CALL_METRICS = (
    [f"cli.run.{s}_s" for s in SUBCOMMANDS] + [f"cli.main.{s}_s" for s in SUBCOMMANDS]
    + ["cli.build_scenario_s", "market_data.load.futures_s", "market_data.load.spot_s",
       "market_data.load.auctions_s", "market_data.load.costs_s", "market_data.write_s",
       "market_data.average_price_s", "auction_engine.run.small_s",
       "auction_engine.run.large_s", "auction_engine.settle_cfd_s",
       "premiums.yearly_aggregate_s", "premiums.equality_of_means_s",
       "premiums.distribution_stats_s", "premiums.fmpi_strip_s", "activity.r1_series_s",
       "activity.r2_series_s", "activity.baseline_mean_excluding_s",
       "activity.event_study_s", "panel.vol3y_s", "panel.standardize_s", "panel.fit_s"])
COUNT_METRICS = ("market_data.rows", "market_data.days", "auction_engine.rounds",
                 "auction_engine.bidder_rounds", "auction_engine.clamps",
                 "activity.undefined_days", "activity.events_dropped", "panel.k")
# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(m, "s", "lower") for m in CALL_METRICS]
    + [(m, "count", "higher" if m == "market_data.rows" else "lower") for m in COUNT_METRICS]
    + [("market_data.rows_per_s", "1/s", "higher"),
       ("auction_engine.ns_per_bidder_round", "ns", "lower"),
       ("auction_engine.undershoot_share", "ratio", "lower"),
       ("auction_engine.failed", "ratio", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's self-tests")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout read from .git, or a note when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_probe(env) -> float:
    """Seconds to ``import powerauctions.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import powerauctions.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, seconds: float, trace: bool):
    """Closed loop: passes until the time is up; traced passes alternate."""
    from perfbench.candle import CANDLE_REF_S, candle  # imports numpy: after set-up

    calibrate = getattr(workload, "candle", candle)
    ref_s = getattr(workload, "candle_ref_s", CANDLE_REF_S)
    untraced, traced = [], []
    tracer, null = Tracer(), NullTracer()
    deadline = time.perf_counter() + seconds
    index = 0
    while (len(untraced) < MIN_PASSES or (trace and not traced)
           or time.perf_counter() < deadline):
        is_traced = trace and index % 2 == 1
        if is_traced:
            tracer.run_id = index
        before = calibrate()
        try:
            res = workload.run_pass(tracer if is_traced else null, index)
        except Exception as exc:  # a failed pass is reported, never dropped
            res = PassResult(attempted=1)
            res.record([f"pass {index}: {type(exc).__name__}: {exc}"])
        if res.ref_wall is None:  # a workload with its own candle sets ref_wall itself
            res.candles = [before, calibrate()]
            res.ref_wall = res.wall * ref_s / statistics.median(res.candles)
        (traced if is_traced else untraced).append((index, res))
        index += 1
    return untraced, traced, tracer


def end_to_end(name, setup_s, passes) -> tuple[dict, dict]:
    results = [r for _, r in passes]
    metrics = {"setup_s": setup_s,
               "wall_ref_s": statistics.median(r.ref_wall for r in results),
               "peak_rss_mb": peak_rss_mb()}
    detail = {"wall_s": summary([r.wall for r in results]),
              "pass_walls": [r.wall for r in results],
              "candle_s": summary([c for r in results for c in r.candles])}
    for metric in WORKLOAD_METRICS[name]:
        samples = [v for r in results for v in r.samples.get(metric, [])]
        # the same samples at reference machine speed: times scale, rates divide
        ref = [v * (r.ref_wall / r.wall) ** (-1 if metric.endswith("per_s") else 1)
               for r in results for v in r.samples.get(metric, [])]
        if samples:
            detail[metric] = summary(samples)
            detail[metric[:-5] + "ref_per_s" if metric.endswith("per_s")
                   else metric[:-2] + "_ref_s"] = summary(ref)
    return metrics, detail


def layer_metrics(tracer, untraced, traced, import_s) -> tuple[dict, dict]:
    """Per-layer values from the spans and counters of the traced run."""
    spans = tracer.self_times()
    per_name: dict[str, list[float]] = {}
    for span, self_s in spans:
        per_name.setdefault(span.name, []).append(self_s)
    values = {"cli.import_s": statistics.median(import_s)}
    for metric in CALL_METRICS:
        calls = per_name.get(metric[:-2], [])
        values[metric] = statistics.median(calls) if calls else 0.0

    counter_runs = tracer.counts
    for metric in COUNT_METRICS:
        runs = [c[metric] for c in counter_runs.values() if metric in c]
        values[metric] = statistics.median(runs) if runs else 0.0

    def total(name):
        return sum(c.get(name, 0.0) for c in counter_runs.values())

    def span_total(prefix):
        return sum(s.end - s.start for s, _ in spans if s.name.startswith(prefix))

    load_s = span_total("market_data.load.")
    values["market_data.rows_per_s"] = total("market_data.rows") / load_s if load_s else 0.0
    bidder_rounds = total("auction_engine.bidder_rounds")
    values["auction_engine.ns_per_bidder_round"] = (
        1e9 * span_total("auction_engine.run.") / bidder_rounds if bidder_rounds else 0.0)
    completed, attempts = total("auction_engine.completed"), total("auction_engine.attempts")
    values["auction_engine.undershoot_share"] = (
        total("auction_engine.undershoot") / completed if completed else 0.0)
    values["auction_engine.failed"] = total("auction_engine.errors") / attempts if attempts else 0.0

    pass_ids = [i for i, _ in traced]
    for layer in LAYERS:
        per_pass = [sum(v for s, v in spans if s.run_id == i and s.name.split(".")[0] == layer)
                    for i in pass_ids]
        values[f"{layer}.self_s"] = statistics.median(per_pass)
    traced_wall = statistics.median(r.wall for _, r in traced)
    untraced_wall = statistics.median(r.wall for _, r in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = statistics.median(
        sum(1 for s, _ in spans if s.run_id == i) for i in pass_ids)

    bases = {
        "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
        "traced_passes": len(traced), "untraced_passes": len(untraced),
        "rows": total("market_data.rows"), "load_s": load_s,
        "bidder_rounds": bidder_rounds, "engine_run_s": span_total("auction_engine.run."),
        "auctions_completed": completed, "auctions_attempted": attempts,
        "auction_errors": total("auction_engine.errors"),
        "calls": {name: len(v) for name, v in sorted(per_name.items())},
        "import_probes": import_s,
    }
    return values, bases


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "powerauctions" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import powerauctions.cli  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0
    import powerauctions
    if Path(powerauctions.__file__).resolve().parent != SRC / "powerauctions":
        print(f"error: imported powerauctions from {powerauctions.__file__}", file=sys.stderr)
        return 2

    from perfbench.analytics_long import AnalyticsLong
    from perfbench.auction_mc import AuctionMc
    from perfbench.paper_cli import PaperCli
    classes = {"paper_cli": PaperCli, "auction_mc": AuctionMc, "analytics_long": AnalyticsLong}

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = classes[args.workload](ROOT, workdir, args.seed, args.size)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        untraced, traced, tracer = run_passes(workload, args.seconds, bool(args.trace))
        probes = PassResult()
        if args.trace:
            tracer.run_id = PROBE_RUN
            try:
                if hasattr(workload, "probe"):
                    probes.attempted += 1
                    workload.probe(tracer)
                probes.attempted += IMPORT_PROBES
                imports = [import_probe(child_env(ROOT)) for _ in range(IMPORT_PROBES)]
            except Exception as exc:  # reported as a failed operation
                probes.record([f"per-layer probe: {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    results = [r for _, r in untraced + traced] + [probes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    failures = [f for r in results for f in r.failures]
    metrics, detail = end_to_end(args.workload, setup_s, untraced)
    detail.update(setup_s={"median": statistics.median(setup_times), "import_s": import_s,
                           "n": len(setup_times)},
                  failed_share={"value": failed / attempted, "failed": failed,
                                "attempted": attempted})
    units = dict(END_TO_END)
    if args.trace and not probes.failed:
        metrics, bases = layer_metrics(tracer, untraced, traced, imports)
        units = {name: unit for name, unit, _ in PER_LAYER}
        detail["trace_bases"] = bases

    print(f"{args.workload} seed={args.seed} passes={len(untraced)}+{len(traced)} traced "
          f"attempted={attempted} failed={failed}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    for name, s in detail.items():
        if name in WORKLOAD_METRICS[args.workload]:
            print(f"  {name:<42} {s['median']:>14.6g} {WORKLOAD_METRICS[args.workload][name]}"
                  f"  (median of {s['n']}" + "".join(f", {k} {v:.6g}" for k, v in s.items()
                                                     if k.startswith("p")) + ")")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print(json.dumps({"detail": {"workload": args.workload, "env": environment(args.seed),
                                 **detail}}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
