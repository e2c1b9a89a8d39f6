"""Mobility & multi-AP roaming subsystem: trajectories, policies, handoffs.

Covers the pure layers (trajectory kinematics, AP-selection policies, the
spec-side waypoint rounding that keeps fingerprints stable), the medium's
batched ``move_many`` invalidation + rebuild telemetry, and the wired-up
stack: a compiled roaming scenario must record handoffs, and the
``roaming`` experiment must carry its scenario fingerprint into the sweep
cache key.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import telemetry
from repro.context import build_context
from repro.devices.base import Radio
from repro.experiments import get_experiment, run_experiment
from repro.experiments.roaming import RoamingTrialConfig, run_roaming_trial
from repro.mobility import (
    AP_SELECTION_POLICIES,
    APReading,
    RandomWaypointTrajectory,
    StickyPolicy,
    StrongestRssiPolicy,
    TrajectoryProcess,
    WaypointTrajectory,
    ap_selection_policy_names,
    make_ap_selection_policy,
)
from repro.phy.medium import Technology
from repro.phy.propagation import Position
from repro.phy.spectrum import zigbee_channel
from repro.scenarios import (
    MobilitySpec,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
)


# ----------------------------------------------------------------------
# Trajectory kinematics
# ----------------------------------------------------------------------
def test_waypoint_trajectory_interpolates_legs():
    traj = WaypointTrajectory([(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)], speed_mps=2.0)
    assert traj.position_at(0.0) == (0.0, 0.0)
    assert traj.position_at(2.5) == (5.0, 0.0)
    assert traj.position_at(5.0) == (10.0, 0.0)
    assert traj.position_at(6.0) == (10.0, 2.0)
    assert traj.end_time == pytest.approx(7.5)
    # Past the end the walker parks at the last waypoint.
    assert traj.position_at(100.0) == (10.0, 5.0)


def test_waypoint_trajectory_loop_wraps():
    traj = WaypointTrajectory(
        [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)], speed_mps=4.0, loop=True
    )
    assert traj.end_time is None  # endless
    period = traj.path_time
    assert period == pytest.approx(4.0)  # 16 m perimeter at 4 m/s
    for t in (0.3, 1.7, 2.9):
        assert traj.position_at(t + period) == pytest.approx(traj.position_at(t))


def test_waypoint_trajectory_per_leg_speeds():
    traj = WaypointTrajectory(
        [(0.0, 0.0), (6.0, 0.0), (6.0, 3.0)], leg_speeds=(3.0, 1.0)
    )
    assert traj.position_at(2.0) == (6.0, 0.0)  # first leg: 6 m at 3 m/s
    assert traj.position_at(3.5) == (6.0, 1.5)  # second leg: 3 m at 1 m/s
    with pytest.raises(ValueError):
        WaypointTrajectory([(0, 0), (1, 0)], leg_speeds=(1.0, 2.0))
    with pytest.raises(ValueError):
        WaypointTrajectory([(0, 0)])


def test_random_waypoint_is_seed_deterministic_and_bounded():
    kwargs = dict(area=(8.0, 4.0), speed_mps=2.0, pause=0.5, origin=(1.0, 1.0))
    a = RandomWaypointTrajectory(seed=7, **kwargs)
    b = RandomWaypointTrajectory(seed=7, **kwargs)
    c = RandomWaypointTrajectory(seed=8, **kwargs)
    times = [0.0, 0.9, 3.3, 7.7, 15.2]
    assert [a.position_at(t) for t in times] == [b.position_at(t) for t in times]
    assert [a.position_at(t) for t in times] != [c.position_at(t) for t in times]
    for t in times:
        x, y = a.position_at(t)
        assert 1.0 <= x <= 9.0 and 1.0 <= y <= 5.0
    # Queries may rewind (sim re-entrancy): earlier times still answer.
    assert a.position_at(0.9) == b.position_at(0.9)


def test_trajectory_process_moves_radio_and_stops_at_end():
    ctx = build_context(seed=0)
    radio = Radio(
        name="m", position=Position(0, 0), band=zigbee_channel(24),
        technology=Technology.ZIGBEE, sim=ctx.sim, streams=ctx.streams,
        trace=ctx.trace,
    )
    ctx.medium.attach(radio)
    traj = WaypointTrajectory([(0.0, 0.0), (4.0, 0.0)], speed_mps=2.0)
    proc = TrajectoryProcess(ctx, [radio], traj, tick=0.25)
    ctx.sim.run(until=1.0)
    assert radio.position.x == pytest.approx(2.0)
    ctx.sim.run(until=10.0)
    assert radio.position.x == pytest.approx(4.0)
    assert not proc.running  # finite path: the process retired itself
    assert proc.ticks_applied > 0


# ----------------------------------------------------------------------
# AP-selection policies
# ----------------------------------------------------------------------
def _readings(**rssi):
    return [APReading(name, value) for name, value in rssi.items()]


def test_strongest_rssi_policy_applies_hysteresis():
    policy = StrongestRssiPolicy(hysteresis_db=4.0)
    # Better, but within the hysteresis margin: stay.
    assert policy.select("ap0", _readings(ap0=-60.0, ap1=-57.0)) == "ap0"
    # Decisively better: roam.
    assert policy.select("ap0", _readings(ap0=-60.0, ap1=-55.0)) == "ap1"
    # Serving AP missing from the scan: take the strongest unconditionally.
    assert policy.select("ap9", _readings(ap0=-70.0, ap1=-65.0)) == "ap1"


def test_sticky_policy_stays_until_floor():
    policy = StickyPolicy(min_rssi_dbm=-75.0)
    assert policy.select("ap0", _readings(ap0=-74.0, ap1=-50.0)) == "ap0"
    assert policy.select("ap0", _readings(ap0=-76.0, ap1=-50.0)) == "ap1"


def test_policy_registry_builds_by_name():
    assert set(ap_selection_policy_names()) >= {"strongest-rssi", "sticky"}
    policy = make_ap_selection_policy("strongest-rssi", hysteresis_db=7.0,
                                      min_rssi_dbm=-60.0)  # foreign kwarg dropped
    assert isinstance(policy, StrongestRssiPolicy)
    assert policy.hysteresis_db == 7.0
    with pytest.raises(KeyError):
        make_ap_selection_policy("teleport")
    assert "sticky" in AP_SELECTION_POLICIES


# ----------------------------------------------------------------------
# Spec-side rounding: fingerprints stable across float spellings
# ----------------------------------------------------------------------
def test_waypoint_rounding_stabilizes_fingerprint():
    def spec_with(waypoints):
        return dataclasses.replace(
            ScenarioSpec(),
            mobility=MobilitySpec(
                kind="trajectory", model="waypoint", waypoints=waypoints
            ),
        )

    exact = spec_with(((0.0, 0.0), (1.2, 3.4)))
    noisy = spec_with(((0.0000004, 0.0), (1.2000001, 3.3999996)))
    assert exact.fingerprint() == noisy.fingerprint()
    assert exact.mobility.waypoints == ((0.0, 0.0), (1.2, 3.4))
    # A genuinely different path still splits the cache.
    other = spec_with(((0.0, 0.0), (1.3, 3.4)))
    assert other.fingerprint() != exact.fingerprint()


# ----------------------------------------------------------------------
# Medium: batched moves and rebuild telemetry
# ----------------------------------------------------------------------
def test_move_many_advances_epoch_once():
    ctx = build_context(seed=0)
    radios = []
    for i in range(4):
        radio = Radio(
            name=f"r{i}", position=Position(float(i), 0.0),
            band=zigbee_channel(24), technology=Technology.ZIGBEE,
            sim=ctx.sim, streams=ctx.streams, trace=ctx.trace,
        )
        ctx.medium.attach(radio)
        radios.append(radio)
    epoch = ctx.channel.position_epoch
    ctx.medium.move_many(
        (radio, Position(radio.position.x + 1.0, 2.0)) for radio in radios
    )
    assert ctx.channel.position_epoch == epoch + 1  # one bump for the batch
    assert all(radio.position.y == 2.0 for radio in radios)
    # An empty batch is free: no invalidation at all.
    ctx.medium.move_many(())
    assert ctx.channel.position_epoch == epoch + 1


def test_link_rows_rebuilt_counter_counts_vector_rebuilds():
    registry = telemetry.MetricsRegistry()
    with telemetry.collect(registry):
        ctx = build_context(seed=0)
        a = Radio(name="a", position=Position(0, 0), band=zigbee_channel(24),
                  technology=Technology.ZIGBEE, sim=ctx.sim,
                  streams=ctx.streams, trace=ctx.trace)
        b = Radio(name="b", position=Position(5, 0), band=zigbee_channel(24),
                  technology=Technology.ZIGBEE, sim=ctx.sim,
                  streams=ctx.streams, trace=ctx.trace)
        ctx.medium.attach(a)
        ctx.medium.attach(b)
        counter = registry.counter("medium.link_rows_rebuilt")
        ctx.medium.transmit(a, 1e-3, 0.0, a.band, a.technology)
        ctx.sim.run(until=5e-3)
        assert counter.value == 0  # first build is not a rebuild
        ctx.medium.move_many([(b, Position(9.0, 0.0))])
        ctx.medium.transmit(a, 1e-3, 0.0, a.band, a.technology)
        ctx.sim.run(until=10e-3)
        assert counter.value == 1  # stale epoch forced exactly one row rebuild
        ctx.medium.transmit(a, 1e-3, 0.0, a.band, a.technology)
        ctx.sim.run(until=15e-3)
        assert counter.value == 1  # cached row reused: no further rebuilds


def test_link_rows_rebuilt_counter_silent_on_moves_before_first_build():
    # Moving before a source ever transmits leaves no row to rebuild: the
    # first transmission builds its row fresh, and that is not a rebuild.
    registry = telemetry.MetricsRegistry()
    with telemetry.collect(registry):
        ctx = build_context(seed=0)
        a = Radio(name="a", position=Position(0, 0), band=zigbee_channel(24),
                  technology=Technology.ZIGBEE, sim=ctx.sim,
                  streams=ctx.streams, trace=ctx.trace)
        ctx.medium.attach(a)
        a.move_to(Position(1.0, 0.0))
        ctx.medium.transmit(a, 1e-3, 0.0, a.band, a.technology)
        ctx.sim.run(until=5e-3)
        assert registry.counter("medium.link_rows_rebuilt").value == 0


# ----------------------------------------------------------------------
# The wired stack: compiled roaming scenarios + the roaming experiment
# ----------------------------------------------------------------------
#: Cheap campus configuration: fast walker, coarse Wi-Fi interval — a few
#: thousand events instead of tens of thousands.
CHEAP_CAMPUS = dict(speed_mps=8.0, hysteresis_db=2.0, scan_interval=0.1,
                    wifi_interval=5e-3, duration=4.0)


def test_campus_roaming_records_handoffs():
    spec = get_scenario("campus-roaming", **CHEAP_CAMPUS)
    registry = telemetry.MetricsRegistry()
    with telemetry.collect(registry):
        compiled = compile_scenario(spec, seed=1)
        result = compiled.run()
    assert result.extra["roam_handoffs"] >= 1
    assert result.extra["roam_scans"] > 0
    assert result.extra["roam_gap_ms"] == pytest.approx(
        30.0 * result.extra["roam_handoffs"]
    )
    # The live telemetry counters carry the same story.
    assert registry.counter("roam.handoffs").value == result.extra["roam_handoffs"]
    assert registry.counter("roam.gap_ms").value > 0
    # Traffic follows the client: the serving AP changed at least once, and
    # the uplink kept delivering.
    assert result.wifi["ped"].delivered > 0


def test_static_scenarios_expose_no_roam_metrics():
    spec = get_scenario("grid", n_zigbee_links=2, duration=0.5)
    result = compile_scenario(spec, seed=0).run()
    assert not any(key.startswith("roam_") for key in result.extra)


def test_roaming_experiment_registered_with_contract():
    spec = get_experiment("roaming")
    assert spec.config_cls is RoamingTrialConfig
    assert get_experiment("roam") is spec  # alias


def test_roaming_trial_reports_motion_metrics():
    result = run_experiment(
        "roaming", scenario="campus-roaming", speed_mps=8.0, n_aps=2,
        scheme="csma", duration=3.0, max_events=30000,
        params={"hysteresis_db": 2.0, "scan_interval": 0.1,
                "wifi_interval": 5e-3},
        seed=3,
    )
    assert result.handoffs >= 1
    assert result.gap_ms == pytest.approx(30.0 * result.handoffs)
    assert result.handoff_rate_hz > 0
    assert 0.0 <= result.wifi_prr <= 1.0
    assert result.seed == 3
    summary = result.summary()
    assert summary["handoffs"] == float(result.handoffs)
    # Round-trips through the uniform result contract.
    restored = type(result).from_dict(result.to_dict())
    assert restored.handoffs == result.handoffs


def test_roaming_config_pins_spec_fingerprint():
    cfg = RoamingTrialConfig(scenario="campus-roaming", speed_mps=3.0, n_aps=2)
    assert cfg.spec_fingerprint == cfg.resolve_spec().fingerprint()
    # The fingerprint is an *axis-sensitive* part of the config (and hence
    # of the sweep cache key): changing any roaming axis changes it.
    other = RoamingTrialConfig(scenario="campus-roaming", speed_mps=4.0, n_aps=2)
    assert other.spec_fingerprint != cfg.spec_fingerprint
    denser = RoamingTrialConfig(scenario="campus-roaming", speed_mps=3.0, n_aps=3)
    assert denser.spec_fingerprint != cfg.spec_fingerprint
    with pytest.raises(ValueError):
        RoamingTrialConfig(scenario="office")
    with pytest.raises(ValueError):
        RoamingTrialConfig(scheme="warp-drive")


def test_roaming_sweep_cache_key_includes_fingerprint(tmp_path):
    from repro.experiments.sweep import SweepEngine, SweepSpec

    engine = SweepEngine(cache_dir=tmp_path, jobs=1)
    spec = SweepSpec(
        experiment="roaming",
        grid={"speed_mps": (6.0, 10.0)},
        base={
            "scenario": "campus-roaming", "n_aps": 2, "scheme": "csma",
            "duration": 2.0, "max_events": 15000,
            "params": {"wifi_interval": 5e-3, "scan_interval": 0.1},
        },
        seeds=(0,),
    )
    run = engine.run(spec)
    assert len(run.records) == 2
    keys = {record.key for record in run.records}
    assert len(keys) == 2  # distinct speeds -> distinct fingerprints -> keys
    # A second run is served entirely from cache.
    rerun = SweepEngine(cache_dir=tmp_path, jobs=1).run(spec)
    assert all(record.cached for record in rerun.records)


def test_run_roaming_trial_default_config_smoke():
    result = run_roaming_trial(
        RoamingTrialConfig(
            scenario="vehicular-corridor", speed_mps=40.0, n_aps=3,
            scheme="csma", duration=0.5, max_events=20000,
            params={"ap_spacing": 6.0, "hysteresis_db": 2.0,
                    "scan_interval": 0.05, "wifi_interval": 4e-3},
        ),
        seed=0,
    )
    assert result.scenario == "vehicular-corridor"
    assert result.scans > 0
