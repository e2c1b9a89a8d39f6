"""Ablation — the detector's continuity rule (N within T).

The paper picks N = 2 high-fluctuation samples within T = 5 ms to separate
ZigBee salvos from strong-noise spikes.  This sweep shows the trade-off the
choice navigates: N = 1 maximizes recall but fires on every noise spike
(precision collapses); larger N or smaller T suppresses noise but misses
weak salvos.
"""

from repro.core import DetectorConfig
from repro.experiments import SignalingTrialConfig, format_table, run_signaling_trial

from .conftest import scaled


def test_ablation_detector(benchmark, emit):
    variants = [
        ("N=1, T=5ms", DetectorConfig(required_samples=1, window=5e-3)),
        ("N=2, T=2.5ms", DetectorConfig(required_samples=2, window=2.5e-3)),
        ("N=2, T=5ms (paper)", DetectorConfig(required_samples=2, window=5e-3)),
        ("N=2, T=10ms", DetectorConfig(required_samples=2, window=10e-3)),
        ("N=3, T=5ms", DetectorConfig(required_samples=3, window=5e-3)),
    ]

    def run():
        results = {}
        for label, config in variants:
            trial = run_signaling_trial(
                SignalingTrialConfig(
                    location="B", power_dbm=-3.0, n_control_packets=3,
                    n_salvos=scaled(80, minimum=20), detector_config=config,
                ),
                seed=4,
            )
            results[label] = trial.pr
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, pr.precision, pr.recall, pr.false_positives]
        for label, pr in results.items()
    ]
    emit(
        "ablation_detector",
        format_table(["variant", "precision", "recall", "false positives"],
                     rows, title="Ablation: detector continuity rule (location B, "
                                 "-3 dBm, 3 packets)", float_format="{:.3f}"),
    )
    # N=1 recalls at least as well as N=2 but produces more false positives.
    assert results["N=1, T=5ms"].recall >= results["N=2, T=5ms (paper)"].recall - 0.02
    assert (results["N=1, T=5ms"].false_positives
            >= results["N=2, T=5ms (paper)"].false_positives)
    # Stricter rules can only lose recall.
    assert results["N=3, T=5ms"].recall <= results["N=2, T=5ms (paper)"].recall + 0.02
    assert results["N=2, T=2.5ms"].recall <= results["N=2, T=10ms"].recall + 0.02
