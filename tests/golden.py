"""Golden outputs: what the simulator produces, pinned case by case.

``tests/golden.json`` maps a case name to one observation of that case:

* ``digest`` — a SHA-256 over the case's trace (scenarios: the trace-kind
  counter digest every :class:`~repro.experiments.scenario.ScenarioResult`
  carries; hand-built cases: every trace record and counter);
* ``events_processed`` — the number of events the simulator fired;
* ``summary`` — the case's results (a scenario's ``summary()`` and
  ``extra``; the observables a hand-built case returns).

The cases are every library scenario x seeds 0-4 x the ``inert`` and
``lossy-control`` fault plans at 0.3 simulated seconds, two small procedural
layouts, a roaming corridor driven fast enough to force a handoff, three
adversarial medium cases (mid-run mobility, a BLE retune during a foreign
transmission, a radio attached mid-transmission), a set of RSSI capture
campaigns, and small configs of every paper experiment run through the
registry (``experiment/...``: the whole ``result.to_dict()`` plus the trace
digest and event count of every simulation the run built).  Floats are
stored with ``repr`` precision, so a check is bitwise.

The file changes only when behaviour is *meant* to change (a new random
number scheme, a model fix).  Regenerate it then, review the diff, and say
in the commit why the digests moved::

    PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

import numpy as np

from repro.context import build_context
from repro.devices import WifiDevice, ZigbeeDevice
from repro.devices.base import Radio
from repro.devices.interferers import Emitter
from repro.experiments import run_experiment
from repro.experiments.runner import SCHEMES
from repro.experiments.scenario import ScenarioTrialConfig, run_scenario_trial
from repro.experiments.topology import Calibration
from repro.faults import FaultPlan, get_fault_plan
from repro.mac.ble import BleConnection
from repro.mac.frames import Frame, FrameType
from repro.phy.medium import Technology
from repro.phy.propagation import FadingModel, PathLossModel, Position
from repro.phy.rssi import RssiSampler
from repro.phy.spectrum import wifi_channel, zigbee_channel
from repro.scenarios import scenario_names
from repro.traffic import WifiPacketSource

GOLDEN_PATH = Path(__file__).with_name("golden.json")

SEEDS = (0, 1, 2, 3, 4)
FAULT_PLANS = ("inert", "lossy-control")
DURATION = 0.3

#: Small procedural layouts, besides each library scenario's defaults.
LAYOUTS = (
    ("grid", {"n_zigbee_links": 3, "n_wifi_pairs": 2}),
    ("random-uniform", {"n_zigbee_links": 4, "n_wifi_pairs": 2}),
)

#: A fast-motion roaming corridor: the client crosses an AP boundary well
#: inside the 0.3 s horizon, so the run exercises trajectory ticks (batched
#: ``move_many`` churn), roaming scans and a handoff.
TRAJECTORY_PARAMS = {
    "speed_mps": 40.0,
    "n_aps": 3,
    "ap_spacing": 6.0,
    "hysteresis_db": 2.0,
    "scan_interval": 0.05,
    "tick": 0.02,
    "wifi_interval": 4e-3,
}
TRAJECTORY_SEEDS = (0, 1, 2)

RSSI_SEEDS = (0, 3, 11)
RSSI_RATES = (40e3, 10e3)

#: Paper experiments, each at its smallest meaningful config: the Figs.
#: 10-12 scheme comparison at A and C, under ``lossy-control`` and under
#: both mobility models; two learning traces (Figs. 7-9); robustness on the
#: office and on a library scenario; one run of every other experiment.
EXPERIMENT_SEED = 1
EXPERIMENTS = (
    *(("coexistence", {"scheme": scheme, "location": location, "n_bursts": 5})
      for scheme in SCHEMES for location in ("A", "C")),
    # Eight bursts: at five, seed 1 happens to run the same with and without
    # the control faults or the walking person.
    *(("coexistence", {"scheme": scheme, "n_bursts": 8, "faults": "lossy-control"})
      for scheme in SCHEMES),
    *(("coexistence", {"scheme": scheme, "mobility": mobility, "n_bursts": 8})
      for scheme in ("bicord", "ecc") for mobility in ("person", "device")),
    ("learning", {"n_packets": 5, "n_bursts": 5}),
    ("learning", {"n_packets": 10, "location": "C", "n_bursts": 5}),
    ("robustness", {"rate": 0.25, "n_bursts": 5}),
    ("robustness", {"rate": 0.25, "scenario": "smart-home",
                    "scenario_params": {"duration": 1.0}}),
    ("priority", {"total_duration": 1.0}),
    ("energy", {"n_packets": 3, "n_bursts": 2}),
    ("signaling", {"n_salvos": 10}),
    ("cti", {"n_traces": 4}),
    ("device-id", {"n_traces": 4}),
    ("ble", {"duration": 0.5}),
    ("roaming", {"duration": 0.5}),
)


def plain(value: Any) -> Any:
    """``value`` as JSON-ready data; raises on anything without a stable form."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(plain(v) for v in value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no stable golden form for {type(value).__name__}: {value!r}")


def canonical(value: Any) -> str:
    return json.dumps(plain(value), sort_keys=True, separators=(",", ":"))


def _sha(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


# ----------------------------------------------------------------------
# Scenario cases
# ----------------------------------------------------------------------
def scenario_case(scenario: str, params: Dict[str, Any], fault_plan, seed: int) -> str:
    """The case name of one scenario trial, e.g. ``grid(n_wifi_pairs=2,...)/inert/seed0``."""
    args = ",".join(f"{k}={params[k]}" for k in sorted(params))
    label = f"{scenario}({args})" if args else scenario
    return f"{label}/{fault_plan or 'none'}/seed{seed}"


def _scenario(scenario: str, params: Dict[str, Any], fault_plan, seed: int) -> Callable:
    def run() -> Dict[str, Any]:
        cfg = ScenarioTrialConfig(
            scenario=scenario, params=params, duration=DURATION, fault_plan=fault_plan
        )
        result = run_scenario_trial(cfg, seed=seed)
        return {
            "digest": result.trace_digest,
            "events_processed": result.events_processed,
            "summary": {"summary": result.summary(), "extra": result.extra},
        }

    return run


# ----------------------------------------------------------------------
# Adversarial medium cases, observed on the full trace
# ----------------------------------------------------------------------
def _hand_built(builder: Callable, seed: int = 3) -> Callable:
    def run() -> Dict[str, Any]:
        ctx = build_context(seed=seed, fading=FadingModel(2.0, 2.5))
        observed = builder(ctx)
        records = [(r.time, r.kind, r.fields) for r in ctx.trace.records]
        return {
            "digest": _sha([records, ctx.trace.counters]),
            "events_processed": ctx.sim.events_processed,
            "summary": observed,
        }

    return run


def attach_radio(ctx, name, pos, band, tech, **kwargs) -> Radio:
    radio = Radio(
        name=name, position=pos, band=band, technology=tech,
        sim=ctx.sim, streams=ctx.streams, trace=ctx.trace, **kwargs,
    )
    ctx.medium.attach(radio)
    return radio


def zigbee_frame(src: str, dst: str, seq: int) -> Frame:
    return Frame(
        FrameType.DATA, Technology.ZIGBEE, src, dst,
        payload_bytes=40, mpdu_bytes=51, seq=seq,
    )


def _mid_run_mobility(ctx):
    """Moving a receiver, a transmitter and a bystander mid-run."""
    a = attach_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    b = attach_radio(ctx, "b", Position(8, 0), zigbee_channel(24), Technology.ZIGBEE)
    c = attach_radio(ctx, "c", Position(4, 3), zigbee_channel(24), Technology.ZIGBEE)
    powers = []
    seq = [0]

    def send():
        seq[0] += 1
        a.transmit_frame(zigbee_frame("a", "b", seq[0]), 0.0)

    for k in range(8):
        ctx.sim.schedule(5e-3 * k, send)
    ctx.sim.schedule(12e-3, lambda: b.move_to(Position(20, 0)))
    ctx.sim.schedule(22e-3, lambda: a.move_to(Position(2, 2)))
    ctx.sim.schedule(27e-3, lambda: c.move_to(Position(2.5, 2)))
    for t in (3e-3, 11e-3, 16e-3, 26e-3, 31e-3, 36e-3):
        ctx.sim.schedule(t, lambda: powers.append((b.energy_dbm(), c.energy_dbm())))
    ctx.sim.run(until=45e-3)
    return powers


def _ble_retune(ctx):
    """BLE hops while long Wi-Fi emissions are in flight."""
    ble = BleConnection(
        ctx, "link", Position(0, 0), Position(2, 0),
        connection_interval=10e-3, afh_check_interval=50e-3,
    )
    ble.start()
    jammer = Emitter(ctx, "jam", Position(1, 1))
    for k in range(6):
        ctx.sim.schedule(
            4e-3 + 35e-3 * k,
            lambda: jammer.emit(25e-3, 18.0, wifi_channel(1), Technology.WIFI),
        )
    ctx.sim.run(until=0.25)
    return (ble.events, ble.event_successes, ble.event_failures,
            ble.exclusions, ble.excluded_channels())


def _late_attach(ctx):
    """A radio attached while a transmission is on the air."""
    a = attach_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    attach_radio(ctx, "b", Position(6, 0), zigbee_channel(24), Technology.ZIGBEE)
    readings = []
    late = []

    def start_long():
        a.transmit_frame(zigbee_frame("a", "b", 1), 0.0)

    def attach_late():
        late.append(attach_radio(ctx, "late", Position(3, 1),
                                  zigbee_channel(24), Technology.ZIGBEE))
        readings.append(late[0].energy_dbm())

    ctx.sim.schedule(0.0, start_long)
    ctx.sim.schedule(0.4e-3, attach_late)  # mid-flight (frame ~1.6 ms)
    ctx.sim.schedule(1.0e-3, lambda: readings.append(late[0].energy_dbm()))
    # After the first frame ends the new radio is a full member of the medium.
    ctx.sim.schedule(5e-3, start_long)
    ctx.sim.schedule(5.5e-3, lambda: readings.append(late[0].energy_dbm()))
    ctx.sim.run(until=10e-3)
    return readings


# ----------------------------------------------------------------------
# RSSI capture campaigns
# ----------------------------------------------------------------------
def _trace_form(trace) -> Dict[str, Any]:
    return {
        "start_time": trace.start_time,
        "rate_hz": trace.rate_hz,
        "dtype": str(trace.samples_dbm.dtype),
        "samples": trace.samples_dbm,
    }


def _rssi_campaign(seed: int, rate_hz: float, faults=None) -> Callable:
    """A busy office and five chained captures, plus a fingerprint of the
    rest of the simulation (capturing must not perturb it)."""

    def run() -> Dict[str, Any]:
        ctx = build_context(
            seed=seed, path_loss=PathLossModel(), fading=FadingModel(),
            trace_kinds=set(), faults=faults,
        )
        sender = WifiDevice(ctx, "W1", Position(2.0, 0.0), data_rate_mbps=1.0)
        WifiDevice(ctx, "W2", Position(5.0, 0.0), data_rate_mbps=1.0)
        WifiPacketSource(ctx, sender.mac, "W2", payload_bytes=100, interval=1.3e-3)
        ZigbeeDevice(ctx, "ZB", Position(1.0, 2.0))
        collector = ZigbeeDevice(ctx, "C", Position(0.0, 0.0))
        sampler = RssiSampler(collector.radio, ctx.sim, ctx.streams)
        traces = []

        def chain(i=0):
            if i < 5:
                sampler.capture(
                    4e-3, rate_hz, lambda trace, i=i: (traces.append(trace), chain(i + 1))
                )

        chain()
        ctx.sim.run(until=0.1)
        return {
            "digest": _sha([_trace_form(t) for t in traces]),
            "events_processed": ctx.sim.events_processed,
            "summary": {
                "captures": len(traces),
                "dtype": str(traces[0].samples_dbm.dtype),
                "fingerprint": (
                    sender.radio.frames_sent, sender.radio.frames_received,
                    sender.radio.frames_lost, sender.mac.data_delivered,
                    collector.radio.frames_received,
                ),
            },
        }

    return run


def _rssi_unquantized() -> Dict[str, Any]:
    """One raw (float) capture: the trace must match before any rounding."""
    ctx = build_context(
        seed=5, path_loss=PathLossModel(pl0_db=40.0, exponent=3.0),
        fading=FadingModel(), trace_kinds=set(),
    )
    sender = WifiDevice(ctx, "W1", Position(2.0, 0.0), data_rate_mbps=1.0)
    WifiDevice(ctx, "W2", Position(5.0, 0.0), data_rate_mbps=1.0)
    WifiPacketSource(ctx, sender.mac, "W2", payload_bytes=100, interval=1e-3)
    collector = ZigbeeDevice(ctx, "C", Position(0.0, 0.0))
    sampler = RssiSampler(collector.radio, ctx.sim, ctx.streams, quantize=False)
    out = []
    sampler.capture(5e-3, 40e3, out.append)
    ctx.sim.run(until=0.02)
    return {
        "digest": _sha(_trace_form(out[0])),
        "events_processed": ctx.sim.events_processed,
        "summary": {"dtype": str(out[0].samples_dbm.dtype), "samples": len(out[0])},
    }


# ----------------------------------------------------------------------
# Paper experiments, through the registry
# ----------------------------------------------------------------------
@contextmanager
def _built_contexts() -> Iterator[List[Any]]:
    """Collect every simulation context built in the scope, in build order.

    Every experiment builds its contexts through :meth:`Calibration.context`,
    whether it hand-wires devices or compiles a scenario.
    """
    built: List[Any] = []
    original = Calibration.context

    def context(self, *args, **kwargs):
        built.append(original(self, *args, **kwargs))
        return built[-1]

    Calibration.context = context
    try:
        yield built
    finally:
        Calibration.context = original


def experiment_case(experiment: str, params: Dict[str, Any]) -> str:
    """E.g. ``experiment/coexistence(location=A,n_bursts=5,scheme=ecc)/seed1``."""
    args = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"experiment/{experiment}({args})/seed{EXPERIMENT_SEED}"


def _experiment(experiment: str, params: Dict[str, Any]) -> Callable:
    def run() -> Dict[str, Any]:
        kwargs = dict(params)
        if "faults" in kwargs:
            kwargs["faults"] = get_fault_plan(kwargs["faults"])
        with _built_contexts() as contexts:
            result = run_experiment(experiment, seed=EXPERIMENT_SEED, **kwargs)
        return {
            "digest": _sha([ctx.trace.counters for ctx in contexts]),
            "events_processed": sum(ctx.sim.events_processed for ctx in contexts),
            "summary": result.to_dict(),
        }

    return run


# ----------------------------------------------------------------------
# The case table
# ----------------------------------------------------------------------
def rssi_case(seed: int, rate_hz: float) -> str:
    return f"rssi/seed{seed}/{rate_hz:g}Hz"


def _cases() -> Dict[str, Callable[[], Dict[str, Any]]]:
    cases: Dict[str, Callable[[], Dict[str, Any]]] = {}
    for fault_plan in FAULT_PLANS:
        for seed in SEEDS:
            for name in scenario_names():
                cases[scenario_case(name, {}, fault_plan, seed)] = _scenario(
                    name, {}, fault_plan, seed)
            for name, params in LAYOUTS:
                cases[scenario_case(name, params, fault_plan, seed)] = _scenario(
                    name, params, fault_plan, seed)
    for seed in TRAJECTORY_SEEDS:
        cases[scenario_case("vehicular-corridor", TRAJECTORY_PARAMS, None, seed)] = _scenario(
            "vehicular-corridor", TRAJECTORY_PARAMS, None, seed)
    cases["medium/mid-run-mobility"] = _hand_built(_mid_run_mobility)
    cases["medium/ble-retune"] = _hand_built(_ble_retune)
    cases["medium/late-attach"] = _hand_built(_late_attach)
    for seed in RSSI_SEEDS:
        for rate_hz in RSSI_RATES:
            cases[rssi_case(seed, rate_hz)] = _rssi_campaign(seed, rate_hz)
    cases["rssi/fault-plan"] = _rssi_campaign(
        7, 40e3, faults=FaultPlan(control_drop_rate=0.3, csi_spurious_rate=0.05))
    cases["rssi/unquantized"] = _rssi_unquantized
    for experiment, params in EXPERIMENTS:
        cases[experiment_case(experiment, params)] = _experiment(experiment, params)
    return cases


CASES = _cases()


@lru_cache(maxsize=None)
def observe(name: str) -> str:
    """Run case ``name`` once per process; its observation, canonical JSON."""
    return canonical(CASES[name]())


@lru_cache(maxsize=1)
def _golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def expected(name: str) -> Dict[str, Any]:
    """The golden observation of case ``name``."""
    return _golden()[name]


def check(name: str) -> None:
    """Assert case ``name`` still produces its golden observation."""
    assert observe(name) == canonical(expected(name)), f"{name} drifted from {GOLDEN_PATH.name}"


def write(path: Path = GOLDEN_PATH) -> int:
    """Write every case's observation, one case per line so diffs read per case."""
    lines = [f"{json.dumps(name)}: {observe(name)}" for name in sorted(CASES)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return len(lines)


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    print(f"wrote {write(path)} golden cases to {path}")
