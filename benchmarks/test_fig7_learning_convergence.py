"""Fig. 7 — white space length across the learning phase.

Paper: with 10-packet bursts (~62.7 ms) and 30 ms steps, the Wi-Fi device
lengthens the white space over ~5 iterations and converges around 70 ms.
"""

from repro.experiments import LearningTrialConfig, format_series, run_learning_trial

from .conftest import scaled


def test_fig7_learning_convergence(benchmark, emit):
    result = benchmark.pedantic(
        lambda: run_learning_trial(
            LearningTrialConfig(
                n_packets=10, step=30e-3, location="A",
                n_bursts=scaled(14, minimum=10),
            ),
            seed=1,
        ),
        rounds=1, iterations=1,
    )
    series_ms = [round(g * 1e3, 1) for g in result.trajectory]
    text = "\n".join(
        [
            "Fig. 7: white space per grant during learning (10 pkts, 30 ms step)",
            format_series("grant_ms", list(range(1, len(series_ms) + 1)), series_ms,
                          y_format="{:.1f}"),
            f"converged: {result.converged}, final white space: "
            f"{result.final_whitespace * 1e3:.1f} ms "
            f"(burst airtime ~{result.burst_airtime * 1e3:.1f} ms; paper: ~70 ms "
            f"for a 62.7 ms burst)",
        ]
    )
    emit("fig7_learning_convergence", text)
    assert result.converged
    # Converged white space in the paper's ballpark (single-grant coverage).
    assert 0.05 <= result.final_whitespace <= 0.13
    # The trajectory is non-decreasing (Fig. 7's monotone growth).
    grants = result.trajectory
    assert all(b >= a - 1e-9 for a, b in zip(grants, grants[1:]))
