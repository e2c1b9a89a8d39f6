#!/usr/bin/env python
"""Non-blocking throughput-regression check for the kernel benchmarks.

Compares a freshly produced pytest-benchmark JSON against the committed
baseline (``BENCH_kernels.json``) and warns when any shared benchmark's
ops/s dropped by more than the threshold (default 20%).  It always exits 0:
benchmark machines are noisy — especially shared CI runners — so this is a
tripwire for humans reading the job log, not a gate.

Usage::

    python benchmarks/check_throughput_regression.py fresh.json \
        [--baseline BENCH_kernels.json] [--threshold 0.20]

Benchmarks present on only one side (new benches, renamed rows) are listed
but never warned about.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_ops(path: Path) -> dict:
    """Map benchmark name -> ops/s from a pytest-benchmark JSON file."""
    with path.open() as fh:
        payload = json.load(fh)
    return {b["name"]: b["stats"]["ops"] for b in payload.get("benchmarks", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="newly produced benchmark JSON")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
        help="committed baseline JSON (default: repo BENCH_kernels.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional ops/s drop that triggers a warning (default 0.20)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_ops(args.baseline)
        fresh = load_ops(args.fresh)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"throughput check skipped: could not load benchmark JSON ({exc})")
        return 0

    warned = False
    for name in sorted(baseline):
        if name not in fresh:
            print(f"  {name}: only in baseline (renamed or not run)")
            continue
        old, new = baseline[name], fresh[name]
        change = (new - old) / old if old else 0.0
        marker = ""
        if change < -args.threshold:
            marker = f"  <-- WARNING: >{args.threshold:.0%} slower than baseline"
            warned = True
        print(f"  {name}: {old:.2f} -> {new:.2f} ops/s ({change:+.1%}){marker}")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  {name}: new benchmark ({fresh[name]:.2f} ops/s, no baseline)")

    if warned:
        print(
            "\nthroughput regression(s) above threshold — investigate before "
            "refreshing BENCH_kernels.json (non-blocking; benchmark hosts are "
            "noisy)"
        )
    else:
        print("\nno throughput regressions above threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
