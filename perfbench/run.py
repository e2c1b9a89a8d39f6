"""The repository's benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload dense-grid --seed 3 --seconds 40 --trace 0

Each repetition runs in a fresh worker process (``worker.py``) on one core,
one after another (a closed loop with one client).  End-to-end times are
the worker's CPU seconds (see ``worker.py``), so a host that lends the
benchmark's cores to other tenants does not count as a slower program.
With ``--trace 0`` the
benchmark repeats the workload until ``--seconds`` is spent (at least
:data:`MIN_REPS` times) and reports every end-to-end metric listed in
``BENCHMARK.json`` as a median over the repetitions (see
:func:`end_to_end`).  With ``--trace 1`` it runs the workload once
untraced and then traced until ``--seconds`` is spent, and reports the
median of every per-layer metric; the traced run must simulate exactly
what the untraced run did (same event count and trace digest).

Inputs come only from ``--seed``; every repetition of a run simulates the
same inputs, and every one must pass the workload's checks and produce the
same event count and trace digest.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
print every metric by name and unit, the event count, the trace digest,
and a host-calibration reading (the CPU time of a fixed pure-python loop)
that lets runs on different hosts be compared; it is not a gated metric.

The layer -> metric -> workload reasoning is in ``layers.json`` beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run repeats the workload at least this often (trace 0).
MIN_REPS = 3
#: ... and at most this often, however fast the program gets.
MAX_REPS = 12
#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 100
#: Metrics computed by the orchestrator rather than a worker.
OVERHEAD_METRIC = "trace.overhead_ratio"


def _worker(args: List[str]) -> Optional[dict]:
    """Run one worker; None when it could not run at all (no program here)."""
    # One core per workload; string hashing stays randomized, so the
    # same-digest check across repetitions also covers hash order.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s", "checks": [],
                "wall_s": time.perf_counter() - start}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - start
    if report["error"]:
        sys.stderr.write(report["error"])
    return report


def _failed_checks(report: dict) -> List[str]:
    if report.get("error"):
        return ["the program raised"]
    return [name for name, ok in report["checks"] if not ok]


def _median(reports: List[dict], key: str, section: Optional[str] = None) -> float:
    values = [(r[section] if section else r)[key] for r in reports]
    return statistics.median(values)


def host_calibration() -> float:
    """Best of three CPU timings of a fixed pure-python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, time.process_time() - start)
    return best


def end_to_end(reports: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of repetitions that simulated the same inputs.

    Simulation host time is summed over chunks of simulated time, taking
    each chunk's median over the repetitions: a host stall slows one chunk
    of one repetition, and the median drops it.  Time to result adds the
    median time spent outside the chunks (builds, sweep engine, results).
    """
    host: Dict[tuple, List[float]] = defaultdict(list)
    events: Dict[tuple, int] = {}
    for report in reports:
        for sim, k, host_s, fired in report["chunks"]:
            host[sim, k].append(host_s)
            events[sim, k] = fired
    warm_chunks = reports[0]["warmup_chunks"]
    warm = {key for key in host if 0 <= key[1] < warm_chunks}
    median = {key: statistics.median(values) for key, values in host.items()}
    warmup = sum(median[key] for key in warm)
    steady = sum(median[key] for key in median if key not in warm)
    outside = statistics.median(
        r["time_to_result_s"] - sum(chunk[2] for chunk in r["chunks"]) for r in reports
    )
    time_to_result = warmup + steady + outside
    return {
        "setup_s": _median(reports, "setup_s"),
        "time_to_result_s": time_to_result,
        "realtime_factor": reports[0]["sim_seconds"] / time_to_result,
        "warmup_s": warmup,
        "steady_events_per_s": sum(events[key] for key in median if key not in warm) / steady,
        "peak_rss_mb": _median(reports, "peak_rss_mb"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: no program to benchmark: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    documented = {name for layer in layers.values() for name in layer["metrics"]}
    undocumented = [m["name"] for m in spec["per_layer"] if m["name"] not in documented]
    if undocumented:
        print(f"error: per-layer metrics missing from layers.json: {undocumented}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    calibration = host_calibration()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    (HERE / "out").mkdir(exist_ok=True)
    if _worker(common + ["--prime"]) is None:
        return 1

    reference: Optional[dict] = None
    reps: List[dict] = []
    while len(reps) < MAX_REPS:
        if args.trace and reference is None:
            reference = _worker(common + ["--trace", "0"])
            if reference is None:
                return 1
            continue
        enough = len(reps) >= (1 if args.trace else MIN_REPS)
        if enough:
            typical = statistics.median(r["wall_s"] for r in reps)
            if time.perf_counter() - started + typical > args.seconds:
                break
        extra = ["--trace", "1", "--spans", str(HERE / "out" / f"spans-{args.workload}.npz")]
        report = _worker(common + (extra if args.trace else ["--trace", "0"]))
        if report is None:
            return 1
        reps.append(report)

    # Correctness: every repetition passed its checks and simulated the same
    # thing (the untraced reference included).
    runs = ([reference] if reference is not None else []) + reps
    failures: Dict[str, int] = {}
    good: List[dict] = []
    expected = next(((r["events"], r["trace_digest"]) for r in runs
                     if not _failed_checks(r)), None)
    for report in runs:
        failed = _failed_checks(report)
        if not failed and (report["events"], report["trace_digest"]) != expected:
            failed = ["same events and trace digest as the other repetitions"]
        for name in failed:
            failures[name] = failures.get(name, 0) + 1
        if not failed:
            good.append(report)
    failed_runs = len(runs) - len(good)
    measured = [r for r in good if r is not reference]
    if not measured or (args.trace and not any(r is reference for r in good)):
        for name, count in failures.items():
            print(f"check failed: {name} ({count} of {len(runs)} repetitions)")
        print(json.dumps({"correct": False, "attempted": len(runs), "failed": failed_runs,
                          "metrics": {}}))
        return 1

    if args.trace:
        metrics = {name: _median(measured, name, "layers") for name in units
                   if name != OVERHEAD_METRIC}
        # The traced run times its spans by the wall clock and the untraced
        # one by the CPU clock; both report their process's CPU time.
        metrics[OVERHEAD_METRIC] = _median(measured, "cpu_s") / reference["cpu_s"] - 1.0
        extra = {}
    else:
        readings = end_to_end(measured)
        metrics = {name: readings[name] for name in units}
        extra = {name: value for name, value in readings.items() if name not in units}

    for name, value in metrics.items():
        print(f"{args.workload:15s} {name:42s} {value:14.6g} {units[name]}")
    extra.update({k: _median(measured, k, "extra") for k in measured[0]["extra"]})
    for name, value in extra.items():
        print(f"{args.workload:15s} {name:42s} {value:14.6g} (not gated)")
    for name, count in failures.items():
        print(f"check failed: {name} ({count} of {len(runs)} repetitions)")
    missing = measured[0].get("missing_entry_points") or []
    if missing:
        print("warning: entry points not found, their spans read 0: " + ", ".join(missing))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(measured), "events": expected[0], "trace_digest": expected[1],
        "error_rate": failed_runs / len(runs), "host_calibration_s": calibration,
        **extra,
    }))
    print(json.dumps({
        "correct": failed_runs == 0, "attempted": len(runs), "failed": failed_runs,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
