"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload dense-grid --seed 3 --trace 0

``run.py`` starts this script once per repetition, so imports, lazily
built caches, process-wide defaults and peak memory never carry over from
one repetition or workload to the next.  It prints one JSON object: the
raw timings (set-up, time to result, host time per simulated chunk), the
correctness checks, the event count and trace digest, and with
``--trace 1`` the per-layer metrics.  ``--prime`` only
imports the program (so the measured repetitions load compiled bytecode,
as a user's process would).

The untraced run times everything with the process's CPU clock
(``time.process_time``): the program is single-threaded and CPU-bound, so
on a quiet host its CPU time is its wall time, while on a shared host the
CPU clock leaves out the time the process waited for a core (and, on a
guest kernel that accounts steal time, the time the hypervisor ran another
guest on its vCPU).  Set-up time therefore counts from the start of the
process, interpreter start-up included.  The traced run uses the wall
clock, like its spans.
"""

import time

#: Wall clock at script start: the traced run's spans are measured from here.
T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Program modules each workload needs before its first call.
IMPORTS = {
    "paper-sweep": ("repro.api",),
    "dense-grid": ("repro.scenarios",),
    "mobility-churn": ("repro.scenarios", "repro.mobility"),
}


def _import_program(workload: str) -> float:
    sys.path.insert(0, str(SOURCE))
    for module in IMPORTS[workload]:
        importlib.import_module(module)
    import repro

    here = Path(repro.__file__).resolve()
    if SOURCE.resolve() not in here.parents:
        raise ImportError(f"repro was imported from {here}, not from {SOURCE}")
    return time.perf_counter()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--prime", action="store_true")
    args = parser.parse_args(argv)

    imported_at = _import_program(args.workload)
    if args.prime:
        print(json.dumps({"error": None, "checks": []}))
        return 0

    from breakdown import per_layer
    from instrument import WARMUP_CHUNKS, Probe
    from tracer import SpanRecorder
    from workloads import WORKLOADS

    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.add("import:repro", T0, imported_at)
    # (clock, the clock's reading at process start)
    clock, origin = (time.perf_counter, T0) if args.trace else (time.process_time, 0.0)
    probe = Probe(recorder, clock)
    probe.install()
    span = recorder.wrap if recorder is not None else (lambda fn, name: fn)
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)

    report = {"error": None, "checks": [], "missing_entry_points": probe.missing}
    try:
        out = WORKLOADS[args.workload](args.seed, span, workdir, bool(args.trace), clock)
    except Exception:  # the program raised: a failed run, reported as such
        report["error"] = traceback.format_exc()
        print(json.dumps(report))
        return 0
    finished = time.perf_counter()

    start = probe.first_run_start()
    time_to_result = out.result_at - start
    report.update({
        "checks": out.checks,
        "events": sum(r.events for r in probe.sims),
        "trace_digest": probe.digest(),
        "setup_s": start - origin,
        "time_to_result_s": time_to_result,
        "sim_seconds": out.sim_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chunks": probe.chunks(),
        # The whole process's CPU time, whichever clock timed the rest.
        "cpu_s": time.process_time(),
        "warmup_chunks": WARMUP_CHUNKS,
        "extra": out.extra,
    })
    if recorder is not None:
        layers, failed = per_layer(recorder, probe, out, finished - T0, time_to_result)
        report["layers"] = layers
        report["checks"] = out.checks + [(name, False) for name in failed]
        if args.spans is not None:
            recorder.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
