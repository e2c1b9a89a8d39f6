"""Experiment runners: one function per evaluation scenario of the paper.

Each runner builds the Fig. 6 office (:mod:`.topology`) with the scheme
under test (BiCord or a baseline), drives the paper's workload, and returns
structured results.  Benchmarks and examples call these functions; they
never poke at devices directly.

All runners share the uniform signature ``run_x(config, seed, calibration)``
so the experiment registry (:mod:`.registry`) and the sweep engine
(:mod:`.sweep`) can drive any of them interchangeably.

Coexistence and learning runs describe the office as a
:class:`~repro.scenarios.ScenarioSpec` and run it through
:func:`~repro.scenarios.compile_scenario`, the one wiring path every
library scenario uses; the priority, energy and signaling runs still wire
the office by hand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..baselines import EccCoordinator, EccNode
from ..core import (
    BicordConfig,
    BicordCoordinator,
    BicordNode,
    DetectorConfig,
    ZigbeeSignalDetector,
)
from ..faults import FaultPlan
from ..mac.frames import zigbee_ack_frame, zigbee_control_frame, zigbee_data_frame
from ..sim.process import Process
from ..traffic.generators import PriorityWifiSource, WifiPacketSource, ZigbeeBurstSource
from .compat import effective_seed, trial_config
from .metrics import AirtimeProbe, CoexistenceResult, PrecisionRecall
from .result import ResultBase
from .topology import (
    LOCATIONS,
    ZIGBEE_RECEIVER_OFFSET,
    Calibration,
    build_office,
    location_powermap,
)

SCHEMES = ("bicord", "ecc", "csma", "predictive", "slow-ctc")


# ======================================================================
# Cross-technology signaling quality (Tables I and II)
# ======================================================================
@dataclass
class SignalingTrialConfig:
    """Parameters of one precision/recall trial (Sec. VIII-B)."""

    location: str = "A"
    power_dbm: float = 0.0
    n_control_packets: int = 4
    n_salvos: int = 200
    salvo_gap: float = 16e-3
    detector_config: Optional[DetectorConfig] = None


@dataclass
class SignalingTrialResult(ResultBase):
    location: str
    power_dbm: float
    n_control_packets: int
    pr: PrecisionRecall
    wifi_prr: float  # Wi-Fi packet reception ratio during the trial
    seed: int = -1

    def summary(self) -> Dict[str, float]:
        return {
            "precision": self.pr.precision,
            "recall": self.pr.recall,
            "true_positives": float(self.pr.true_positives),
            "false_positives": float(self.pr.false_positives),
            "wifi_prr": self.wifi_prr,
        }


def run_signaling_trial(
    config: Optional[SignalingTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> SignalingTrialResult:
    """Measure signaling precision/recall at one (location, power, count).

    The ZigBee sender emits ``n_salvos`` salvos of ``n_control_packets``
    120 B control packets (forced, overlapping Wi-Fi), separated by
    ``salvo_gap`` of silence.  The Wi-Fi receiver runs the CSI detector; no
    white spaces are granted (we only measure detection quality, as in
    Sec. VIII-B).
    """
    cfg = trial_config(config, SignalingTrialConfig)
    seed = effective_seed(seed)
    office = build_office(seed=seed, location=cfg.location, calibration=calibration)
    ctx = office.ctx
    registry = ctx.telemetry
    cal = office.calibration
    WifiPacketSource(
        ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    detector = ZigbeeSignalDetector(cfg.detector_config)
    office.wifi_receiver.csi.subscribe(detector.observe)
    detections: List[float] = []
    detector.on_detection.append(detections.append)

    windows: List[Tuple[float, float]] = []
    zs_mac = office.zigbee_sender.mac
    control_duration = zigbee_control_frame("ZS", 120).duration()

    def salvo_driver():
        # Let Wi-Fi traffic and the CSI baseline settle first.
        yield 50e-3
        for _ in range(cfg.n_salvos):
            start = ctx.sim.now
            for i in range(cfg.n_control_packets):
                control = zigbee_control_frame("ZS", 120)
                ctx.sim.schedule(
                    i * (control_duration + 0.2e-3),
                    zs_mac.send_forced, control, cfg.power_dbm,
                )
            salvo_span = cfg.n_control_packets * (control_duration + 0.2e-3)
            # Detections may trail the salvo by one detector window.
            windows.append((start, start + salvo_span + 5e-3))
            yield salvo_span + cfg.salvo_gap

    driver = Process(ctx.sim, salvo_driver(), name="salvo-driver")
    horizon = 0.1 + cfg.n_salvos * (
        cfg.n_control_packets * (control_duration + 0.5e-3) + cfg.salvo_gap
    )
    with registry.span("signaling.sim"):
        ctx.sim.run(until=horizon)
    driver.stop()

    tp = fp = 0
    detected_salvos = [False] * len(windows)
    for t in detections:
        hit = False
        for i, (lo, hi) in enumerate(windows):
            if lo <= t <= hi:
                detected_salvos[i] = True
                hit = True
                break
        if hit:
            tp += 1
        else:
            fp += 1
    pr = PrecisionRecall(
        true_positives=tp,
        false_positives=fp,
        salvos=len(windows),
        salvos_detected=sum(detected_salvos),
    )
    sender_mac = office.wifi_sender.mac
    sent = max(sender_mac.data_sent, 1)
    prr = sender_mac.data_delivered / sent
    # Detection-quality telemetry: this runner sees ground truth (salvo
    # windows), so false wakeups are exact here, unlike in coexistence runs.
    registry.counter("detector.samples_seen").inc(detector.samples_seen)
    registry.counter("detector.detections").inc(detector.detections)
    registry.counter("detector.true_detections").inc(tp)
    registry.counter("detector.false_wakeups").inc(fp)
    registry.record_sim(ctx.sim)
    return SignalingTrialResult(
        cfg.location, cfg.power_dbm, cfg.n_control_packets, pr, prr, seed=seed
    )


# ======================================================================
# Coexistence comparison (Figs. 10-13)
# ======================================================================
@dataclass
class CoexistenceConfig:
    """One coexistence run's parameters (defaults = Sec. VIII-D setup)."""

    scheme: str = "bicord"
    location: str = "A"
    seed: int = 0
    burst_packets: int = 5
    payload_bytes: int = 50
    burst_interval: float = 200e-3
    poisson: bool = True
    n_bursts: int = 40
    signaling_power_dbm: Optional[float] = None  # None = paper's per-location
    ecc_whitespace: float = 20e-3
    ecc_period: float = 100e-3
    mobility: str = "none"  # "none" | "person" | "device"
    calibration: Calibration = field(default_factory=Calibration)
    bicord_config: BicordConfig = field(default_factory=BicordConfig)
    grace: float = 2.0
    #: Optional fault-injection plan; ``None`` (or an inert plan) runs
    #: fault-free and is bitwise-identical to the pre-faults behavior.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.mobility not in ("none", "person", "device"):
            raise ValueError(f"unknown mobility {self.mobility!r}")


#: The office's ZigBee link.  A burst source draws from the stream
#: ``traffic/<link name>``, so the name is part of what a seed reproduces.
ZIGBEE_LINK = "zigbee-source"


def coexistence_spec(config: CoexistenceConfig):
    """The Fig. 6 office running ``config``'s workload, as a scenario spec."""
    from ..scenarios import (  # lazy: the scenario layer imports this module
        BurstTrafficSpec,
        CoordinatorSpec,
        MobilitySpec,
        ScenarioSpec,
        ZigbeeLinkSpec,
    )

    sender = LOCATIONS[config.location]
    receiver = sender.moved(*ZIGBEE_RECEIVER_OFFSET)
    return ScenarioSpec(
        name="coexistence",
        duration=config.n_bursts * config.burst_interval,
        grace=config.grace,
        backend="office",
        location=config.location,
        zigbee=(
            ZigbeeLinkSpec(
                name=ZIGBEE_LINK,
                sender="ZS",
                receiver="ZR",
                sender_pos=(sender.x, sender.y),
                receiver_pos=(receiver.x, receiver.y),
                signaling_power_dbm=config.signaling_power_dbm,
                traffic=BurstTrafficSpec(
                    n_packets=config.burst_packets,
                    payload_bytes=config.payload_bytes,
                    interval_mean=config.burst_interval,
                    poisson=config.poisson,
                    max_bursts=config.n_bursts,
                ),
            ),
        ),
        coordinator=CoordinatorSpec(
            scheme=config.scheme,
            ecc_whitespace=config.ecc_whitespace,
            ecc_period=config.ecc_period,
            bicord=config.bicord_config,
        ),
        mobility=MobilitySpec(kind=config.mobility),
        calibration=config.calibration,
    )


def run_coexistence(
    config: Optional[CoexistenceConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> CoexistenceResult:
    """Run one coexistence scenario and report the paper's metrics.

    ``seed`` and ``calibration``, when given, override the config's own
    ``seed``/``calibration`` fields (the registry always passes them
    explicitly so every experiment shares one seeding convention).
    """
    from ..scenarios import compile_scenario  # lazy: see coexistence_spec

    config = trial_config(config, CoexistenceConfig)
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if calibration is not None:
        overrides["calibration"] = calibration
    if overrides:
        config = dataclasses.replace(config, **overrides)
    compiled = compile_scenario(
        coexistence_spec(config), seed=config.seed, faults=config.faults
    )
    run = compiled.run()
    link = run.links[ZIGBEE_LINK]
    return CoexistenceResult(
        scheme=config.scheme,
        location=config.location,
        duration=run.duration,
        utilization=run.utilization,
        zigbee_delays=link.delays,
        zigbee_packets_offered=link.offered,
        zigbee_packets_delivered=link.delivered,
        zigbee_packets_dropped=link.dropped,
        zigbee_payload_bytes=link.payload_bytes,
        burst_latencies=list(compiled.zigbee_links[ZIGBEE_LINK].node.burst_latencies),
        control_packets=link.control_packets,
        whitespace_airtime=run.whitespace_airtime,
        whitespaces_issued=run.whitespaces_issued,
        wifi_packets_delivered=run.wifi_packets_delivered,
        extra=run.extra,
        seed=config.seed,
    )


# ======================================================================
# Learning-phase behaviour (Figs. 7, 8, 9)
# ======================================================================
@dataclass
class LearningTrialConfig:
    """Parameters of one white-space learning observation (Sec. VIII-C)."""

    n_packets: int = 10
    step: float = 30e-3
    location: str = "A"
    payload_bytes: int = 50
    burst_interval: float = 200e-3
    n_bursts: int = 15


@dataclass
class LearningTrialResult(ResultBase):
    n_packets: int
    step: float
    location: str
    iterations: int
    converged: bool
    final_whitespace: float
    trajectory: List[float]  # granted lengths over time (Fig. 7 series)
    burst_airtime: float  # data airtime one burst actually needs
    seed: int = -1

    def summary(self) -> Dict[str, float]:
        return {
            "iterations": float(self.iterations),
            "converged": float(self.converged),
            "final_whitespace_ms": self.final_whitespace * 1e3,
            "burst_airtime_ms": self.burst_airtime * 1e3,
        }


def run_learning_trial(
    config: Optional[LearningTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> LearningTrialResult:
    """Observe the white-space learning process for one traffic pattern."""
    from ..scenarios import compile_scenario  # lazy: see coexistence_spec

    cfg = trial_config(config, LearningTrialConfig)
    seed = effective_seed(seed)
    bicord_config = BicordConfig()
    bicord_config.allocator.initial_whitespace = cfg.step
    spec = coexistence_spec(CoexistenceConfig(
        location=cfg.location,
        burst_packets=cfg.n_packets,
        payload_bytes=cfg.payload_bytes,
        burst_interval=cfg.burst_interval,
        poisson=False,
        n_bursts=cfg.n_bursts,
        bicord_config=bicord_config,
        grace=0.0,
    ))
    spec = dataclasses.replace(
        spec, duration=cfg.n_bursts * cfg.burst_interval + 1.0
    )
    compiled = compile_scenario(spec, seed=seed, calibration=calibration)
    compiled.run()
    allocator = compiled.coordinator.allocator
    # Data airtime one burst needs (for over-provision accounting, Fig. 9):
    # packet exchange = frame + ACK + 2 turnarounds + pacing gap.
    exchange = (
        zigbee_data_frame("ZS", "ZR", cfg.payload_bytes).duration()
        + zigbee_ack_frame("ZR", "ZS", 0).duration()
        + 2 * 192e-6
        + bicord_config.signaling.inter_packet_gap
    )
    return LearningTrialResult(
        n_packets=cfg.n_packets,
        step=cfg.step,
        location=cfg.location,
        iterations=allocator.learning_iterations,
        converged=allocator.converged,
        final_whitespace=allocator.current_whitespace,
        trajectory=allocator.whitespace_trajectory(),
        burst_airtime=cfg.n_packets * exchange,
        seed=seed,
    )


# ======================================================================
# Priority traffic (Fig. 13)
# ======================================================================
@dataclass
class PriorityTrialConfig:
    """Parameters of the prioritized Wi-Fi traffic scenario (Sec. VIII-G)."""

    scheme: str = "bicord"
    high_proportion: float = 0.3
    total_duration: float = 10.0
    ecc_whitespace: float = 20e-3
    location: str = "A"


@dataclass
class PriorityResult(ResultBase):
    scheme: str
    high_proportion: float
    utilization: float
    zigbee_utilization: float
    low_priority_wifi_delay: float
    high_priority_wifi_delay: float
    zigbee_mean_delay: float
    seed: int = -1


def run_priority_experiment(
    config: Optional[PriorityTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> PriorityResult:
    """Sec. VIII-G: Wi-Fi mixes video (high) and file (low) traffic.

    The coordinator ignores ZigBee requests while the Wi-Fi device is in a
    high-priority phase.
    """
    cfg = trial_config(config, PriorityTrialConfig)
    seed = effective_seed(seed)
    office = build_office(seed=seed, location=cfg.location, calibration=calibration)
    ctx = office.ctx
    cal = office.calibration
    source = PriorityWifiSource(
        ctx, office.wifi_sender.mac, "F",
        high_proportion=cfg.high_proportion, total_duration=cfg.total_duration,
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )

    def policy() -> bool:
        return source.current_priority == 0

    if cfg.scheme == "bicord":
        coordinator = BicordCoordinator(office.wifi_receiver, grant_policy=policy)
        node = BicordNode(
            office.zigbee_sender, "ZR", powermap=location_powermap(cfg.location)
        )
    elif cfg.scheme == "ecc":
        coordinator = EccCoordinator(
            office.wifi_receiver, whitespace=cfg.ecc_whitespace, grant_policy=policy
        )
        node = EccNode(office.zigbee_sender, "ZR")
        coordinator.register(node)
    else:
        raise ValueError("priority experiment compares bicord and ecc")

    ZigbeeBurstSource(
        ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=200e-3, poisson=True,
        max_bursts=int(cfg.total_duration / 0.2),
    )
    probe = AirtimeProbe(
        wifi_radios=[office.wifi_sender.radio, office.wifi_receiver.radio],
        zigbee_radios=[office.zigbee_sender.radio, office.zigbee_receiver.radio],
    )
    probe.start(0.0)
    ctx.sim.run(until=cfg.total_duration + 0.5)
    coordinator.stop()
    snapshot = probe.snapshot(cfg.total_duration)
    low = [d for d, p in office.wifi_sender.mac.delay_records if p == 0]
    high = [d for d, p in office.wifi_sender.mac.delay_records if p > 0]
    return PriorityResult(
        scheme=cfg.scheme,
        high_proportion=cfg.high_proportion,
        utilization=snapshot.channel_utilization,
        zigbee_utilization=snapshot.zigbee_utilization,
        low_priority_wifi_delay=float(np.mean(low)) if low else 0.0,
        high_priority_wifi_delay=float(np.mean(high)) if high else 0.0,
        zigbee_mean_delay=float(np.mean(node.packet_delays)) if node.packet_delays else 0.0,
        seed=seed,
    )


# ======================================================================
# Energy overhead (Sec. VII-B)
# ======================================================================
@dataclass
class EnergyTrialConfig:
    """Parameters of the energy-overhead comparison (Sec. VII-B)."""

    n_packets: int = 10
    payload_bytes: int = 120
    n_bursts: int = 10


@dataclass
class EnergyResult(ResultBase):
    bicord_mj: float
    clear_channel_mj: float
    overhead_fraction: float
    control_packets: int
    seed: int = -1


def run_energy_trial(
    config: Optional[EnergyTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> EnergyResult:
    """Energy of delivering bursts under Wi-Fi (BiCord) vs a clear channel."""
    cfg = trial_config(config, EnergyTrialConfig)
    seed = effective_seed(seed)

    def one(with_wifi: bool) -> Tuple[float, int]:
        office = build_office(seed=seed, location="A", calibration=calibration)
        ctx = office.ctx
        cal = office.calibration
        if with_wifi:
            WifiPacketSource(
                ctx, office.wifi_sender.mac, "F",
                payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
            )
            BicordCoordinator(office.wifi_receiver)
        node = BicordNode(
            office.zigbee_sender, "ZR", powermap=location_powermap("A")
        )
        ZigbeeBurstSource(
            ctx, node.offer_burst, n_packets=cfg.n_packets,
            payload_bytes=cfg.payload_bytes,
            interval_mean=300e-3, poisson=False, max_bursts=cfg.n_bursts,
        )
        ctx.sim.run(until=cfg.n_bursts * 0.3 + 1.0)
        return office.zigbee_sender.energy.total_mj, node.control_packets_sent

    bicord_mj, control = one(with_wifi=True)
    clear_mj, _ = one(with_wifi=False)
    overhead = (bicord_mj - clear_mj) / clear_mj if clear_mj > 0 else 0.0
    return EnergyResult(bicord_mj, clear_mj, overhead, control, seed=seed)
