"""Per-layer metrics of a traced run, from spans, probe counts and telemetry.

Every span name is ``"<layer>:<entry point>"``; a layer's self time is the
summed self time of its spans.  :data:`SELF_TIME_METRICS` names the metric
each layer's self time is reported under, so the reported self times plus
``trace.unattributed_s`` add up to the traced run's wall time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from instrument import MEDIUM_QUERIES

#: Layer -> the per-layer metric that reports its self time.
SELF_TIME_METRICS = {
    "sim": "sim.dispatch_self_s",
    "phy.medium": "phy.medium.self_s",
    "phy.link": "phy.link.self_s",
    "phy.ber": "phy.ber.self_s",
    "phy.csi": "phy.csi.self_s",
    "devices.reception": "devices.reception.self_s",
    "devices": "devices.self_s",
    "mac.wifi": "mac.wifi.self_s",
    "mac.zigbee": "mac.zigbee.self_s",
    "core": "core.self_s",
    "baselines": "baselines.self_s",
    "traffic": "traffic.self_s",
    "mobility": "mobility.self_s",
    "experiments": "experiments.self_s",
    "scenarios": "scenarios.self_s",
    "import": "import_s",
    "other": "other.self_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder, probe, out, wall_s: float, time_to_result_s: float
              ) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of one traced run, and the checks that failed."""
    spans, covered = recorder.summary()
    layer_self: Dict[str, float] = defaultdict(float)
    for name, (_, self_s, _) in spans.items():
        layer_self[name.split(":", 1)[0]] += self_s

    def calls(*names: str) -> int:
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    counters = out.counters
    broadcasts = counters.get("medium.broadcasts", 0)
    receptions_ok = calls("mac.wifi:on_frame_received", "mac.zigbee:on_frame_received")
    receptions_lost = calls("mac.wifi:on_frame_lost", "mac.zigbee:on_frame_lost")
    receptions = receptions_ok + receptions_lost
    reception_calls = calls("devices.reception:on_transmission_start",
                            "devices.reception:on_transmission_end")
    medium_events = calls("mac.wifi:on_medium_event", "mac.zigbee:on_medium_event")
    detections = counters.get("detector.detections", 0)
    ber_evals = calls("phy.ber:ber")
    unattributed = wall_s - covered

    metrics = {metric: layer_self.get(layer, 0.0) for layer, metric in SELF_TIME_METRICS.items()}
    metrics.update({
        "sim.events": sum(r.events for r in probe.sims),
        "sim.queue_hwm": max((r.queue_hwm for r in probe.sims), default=0),
        "phy.medium.transmit_calls": calls("phy.medium:transmit"),
        "phy.medium.query_calls": calls(*(f"phy.medium:{q}" for q in MEDIUM_QUERIES)),
        "phy.medium.notifications_per_broadcast": _ratio(reception_calls, broadcasts),
        "phy.medium.accumulator_resyncs": counters.get("medium.accumulator_resyncs", 0),
        "phy.medium.link_rows_rebuilt": counters.get("medium.link_rows_rebuilt", 0),
        "phy.link.streams_created": sum(r.streams for r in probe.sims),
        "devices.reception.calls": reception_calls,
        "devices.reception.locks": probe.locks,
        "devices.reception.delivered_ratio": _ratio(receptions_ok, receptions),
        "phy.ber.evals": ber_evals,
        "phy.ber.evals_per_reception": _ratio(ber_evals, receptions),
        "mac.medium_events": medium_events,
        "mac.medium_events_per_broadcast": _ratio(medium_events, broadcasts),
        "core.detector.samples": counters.get("detector.samples_seen", 0),
        "core.detector.false_wakeup_ratio": _ratio(
            detections - counters.get("bicord.grants", 0), detections
        ),
        "mobility.move_batches": calls("phy.medium:move_many"),
        "mobility.radios_moved": probe.radios_moved,
        "scenarios.compile_s": out.layer.get("scenarios.compile_s", 0.0),
        "scenarios.radios_built": sum(r.radios for r in probe.sims),
        "experiments.trial_s": total("experiments:_execute_trial"),
        "experiments.build_s": total("experiments:build_office"),
        "experiments.overhead_s": (
            time_to_result_s - out.layer["experiments.trial_elapsed_s"]
            if "experiments.trial_elapsed_s" in out.layer else 0.0
        ),
        "experiments.cache_hit_ratio": out.layer.get("experiments.cache_hit_ratio", 0.0),
        "experiments.cache_load_s": out.layer.get("experiments.cache_load_s", 0.0),
        "experiments.cached_trials_per_s": out.layer.get("experiments.cached_trials_per_s", 0.0),
        "trace.unattributed_s": unattributed,
        "trace.spans": len(recorder),
    })

    failed = []
    if recorder.open_spans():
        failed.append("every span ended")
    attributed = sum(metrics[m] for m in SELF_TIME_METRICS.values())
    if abs(attributed + unattributed - wall_s) > 1e-6 * wall_s:
        failed.append("layer self times plus unattributed add up to the traced wall time")
    if unattributed < -1e-6 * wall_s:
        failed.append("top-level spans do not overlap")
    return {k: float(v) for k, v in metrics.items()}, failed
