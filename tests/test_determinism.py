"""Determinism: a run is a pure function of its seed.

This is the property the whole experiment harness leans on — repeated runs
with one seed must agree bit-for-bit, and different seeds must explore
different sample paths.
"""

from repro.experiments import (
    CoexistenceConfig,
    LearningTrialConfig,
    SignalingTrialConfig,
    run_coexistence,
    run_learning_trial,
    run_signaling_trial,
)


def coexistence_fingerprint(seed):
    result = run_coexistence(CoexistenceConfig(scheme="bicord", n_bursts=10, seed=seed))
    return (
        result.zigbee_packets_delivered,
        tuple(result.zigbee_delays),
        result.utilization.wifi_airtime,
        result.utilization.zigbee_airtime,
        result.control_packets,
        result.whitespaces_issued,
    )


def test_coexistence_bit_identical_across_runs():
    assert coexistence_fingerprint(7) == coexistence_fingerprint(7)


def test_coexistence_differs_across_seeds():
    assert coexistence_fingerprint(7) != coexistence_fingerprint(8)


def test_signaling_trial_deterministic():
    cfg = SignalingTrialConfig(location="C", power_dbm=-1.0, n_salvos=20)
    a = run_signaling_trial(cfg, seed=3)
    b = run_signaling_trial(cfg, seed=3)
    assert a.pr == b.pr
    assert a.wifi_prr == b.wifi_prr


def test_learning_trial_deterministic():
    cfg = LearningTrialConfig(n_packets=10, n_bursts=8)
    a = run_learning_trial(cfg, seed=5)
    b = run_learning_trial(cfg, seed=5)
    assert a.trajectory == b.trajectory
    assert a.final_whitespace == b.final_whitespace


def test_ecc_run_deterministic():
    def fingerprint():
        r = run_coexistence(CoexistenceConfig(scheme="ecc", n_bursts=10, seed=9))
        return (r.zigbee_packets_delivered, tuple(r.zigbee_delays))

    assert fingerprint() == fingerprint()
