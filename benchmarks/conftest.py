"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and prints its
rows/series (also saved under ``results/``).  Absolute numbers come from our
RF simulator, not the authors' testbed; the quantities to compare are
orderings, trends, and approximate factors — see EXPERIMENTS.md.

``BICORD_BENCH_SCALE`` scales workload sizes (default 1.0); e.g. 0.3 for a
quick smoke run, 3.0 for tighter confidence intervals.

``BICORD_BENCH_JOBS`` sets the worker-process count the sweep-driven
benchmarks (Figs. 10/12, sweep scaling) fan out to; it defaults to the
machine's core count, capped at 4.  Parallel runs are bitwise-identical to
serial ones — only wall time changes.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SCALE = float(os.environ.get("BICORD_BENCH_SCALE", "1.0"))
BENCH_JOBS = int(os.environ.get("BICORD_BENCH_JOBS", str(min(4, os.cpu_count() or 1))))


def scaled(n: int, minimum: int = 2) -> int:
    """Scale a workload size by BICORD_BENCH_SCALE, with a floor."""
    return max(minimum, int(round(n * SCALE)))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a table/series block and persist it to results/<name>.txt."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


# ----------------------------------------------------------------------
# Shared expensive computations (used by more than one benchmark file)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def signaling_grid():
    """Tables I and II share one sweep: location x power x packet count."""
    from repro.experiments import SignalingTrialConfig, run_signaling_trial

    cache = {}

    def compute():
        if cache:
            return cache
        n_salvos = scaled(80, minimum=20)
        seeds = (1, 2)
        for location in "ABCD":
            for power in (0.0, -1.0, -3.0):
                for n_packets in (3, 4, 5):
                    trials = [
                        run_signaling_trial(
                            SignalingTrialConfig(
                                location=location, power_dbm=power,
                                n_control_packets=n_packets, n_salvos=n_salvos,
                            ),
                            seed=seed,
                        )
                        for seed in seeds
                    ]
                    precision = sum(t.pr.precision for t in trials) / len(trials)
                    recall = sum(t.pr.recall for t in trials) / len(trials)
                    cache[(location, power, n_packets)] = (precision, recall)
        return cache

    return compute


@pytest.fixture(scope="session")
def learning_grid():
    """Figs. 8 and 9 share one sweep: burst size x step x location."""
    from repro.experiments import LearningTrialConfig, run_learning_trial

    cache = {}

    def compute():
        if cache:
            return cache
        seeds = range(scaled(4, minimum=2))
        for n_packets in (5, 10, 15):
            for step in (30e-3, 40e-3):
                for location in ("A", "B"):
                    trials = [
                        run_learning_trial(
                            LearningTrialConfig(
                                n_packets=n_packets, step=step, location=location,
                                n_bursts=scaled(12, minimum=8),
                            ),
                            seed=seed,
                        )
                        for seed in seeds
                    ]
                    cache[(n_packets, step, location)] = trials
        return cache

    return compute
