"""Scenario compiler: spec + seed -> a ready-to-run simulation.

:func:`compile_scenario` validates a :class:`~repro.scenarios.spec.ScenarioSpec`
and assembles the full object graph — context, devices, coordinator,
nodes, traffic sources, mobility processes, airtime probe — returning a
:class:`CompiledScenario` whose :meth:`~CompiledScenario.run` drives the
simulation and collects a
:class:`~repro.experiments.scenario.ScenarioResult`.

Two backends share one wiring path:

* ``office`` delegates the base E/F/ZS/ZR quartet to
  :func:`~repro.experiments.topology.build_office` (the calibrated Fig. 6
  geometry — positions, CSI model, CCA penalties all come from there) and
  only builds *additional* ZigBee links itself;
* ``generic`` builds every device from the link specs, in spec order, so
  procedurally generated deployments of any size compile the same way.

Compilation is deterministic: the same (spec, seed, calibration) always
produces the same device/RNG-stream wiring, which is what makes scenario
trials cacheable by content address.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from ..baselines import (
    CsmaNode,
    EccCoordinator,
    EccNode,
    PredictiveNode,
    SlowCtcCoordinator,
    SlowCtcNode,
)
from ..core import BicordCoordinator, BicordNode
from ..devices import WifiDevice, ZigbeeDevice
from ..experiments.metrics import AirtimeProbe
from ..experiments.scenario import LinkResult, ScenarioResult, WifiLinkResult
from ..experiments.topology import (
    Calibration,
    build_office,
    location_powermap,
)
from ..faults.presets import get_fault_plan
from ..mobility import (
    RandomWaypointTrajectory,
    RoamingClient,
    TrajectoryProcess,
    WaypointTrajectory,
    make_ap_selection_policy,
)
from ..phy.propagation import Position
from ..serialization import stable_hash
from ..sim.process import Process
from ..traffic.generators import PriorityWifiSource, WifiPacketSource, ZigbeeBurstSource
from .spec import ScenarioSpec, WifiLinkSpec, ZigbeeLinkSpec


class _WifiLinkRuntime:
    """A built Wi-Fi link: devices plus its (optional) traffic source."""

    __slots__ = ("spec", "sender", "receiver", "source", "priority_source")

    def __init__(self, spec: WifiLinkSpec, sender: WifiDevice, receiver: WifiDevice):
        self.spec = spec
        self.sender = sender
        self.receiver = receiver
        self.source: Any = None
        self.priority_source: Optional[PriorityWifiSource] = None


class _ZigbeeLinkRuntime:
    """A built ZigBee link: devices, protocol node, and burst source."""

    __slots__ = ("spec", "sender", "receiver", "node", "source")

    def __init__(self, spec: ZigbeeLinkSpec, sender: ZigbeeDevice, receiver: ZigbeeDevice):
        self.spec = spec
        self.sender = sender
        self.receiver = receiver
        self.node: Any = None
        self.source: Optional[ZigbeeBurstSource] = None


class CompiledScenario:
    """The executable form of a spec: run once, collect the result."""

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int,
        ctx,
        wifi_links: Dict[str, _WifiLinkRuntime],
        zigbee_links: Dict[str, _ZigbeeLinkRuntime],
        coordinator: Any,
        probe: AirtimeProbe,
        ap_devices: Optional[List[WifiDevice]] = None,
        roaming: Optional[RoamingClient] = None,
        mobility_process: Optional[TrajectoryProcess] = None,
    ):
        self.spec = spec
        self.seed = seed
        self.ctx = ctx
        self.wifi_links = wifi_links
        self.zigbee_links = zigbee_links
        self.coordinator = coordinator
        self.probe = probe
        self.ap_devices = list(ap_devices or [])
        self.roaming = roaming
        self.mobility_process = mobility_process
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.ctx.sim

    def device(self, name: str):
        """Look up any built device by name (senders and receivers)."""
        for link in self.wifi_links.values():
            if link.sender.name == name:
                return link.sender
            if link.receiver.name == name:
                return link.receiver
        for link in self.zigbee_links.values():
            if link.sender.name == name:
                return link.sender
            if link.receiver.name == name:
                return link.receiver
        for ap in self.ap_devices:
            if ap.name == name:
                return ap
        raise KeyError(f"no device named {name!r} in scenario {self.spec.name!r}")

    # ------------------------------------------------------------------
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> ScenarioResult:
        """Drive the simulation and collect the scenario's metrics.

        ``until`` overrides the spec's duration; ``max_events`` caps the
        event count (smoke runs).  The grace drain loop only runs for
        uncapped runs — a capped run reports whatever completed in budget.
        """
        if self._ran:
            raise RuntimeError(
                "a CompiledScenario runs once; compile the spec again for a fresh run"
            )
        self._ran = True
        ctx = self.ctx
        registry = ctx.telemetry
        horizon = float(until) if until is not None else self.spec.duration
        with registry.span("scenario.sim"):
            ctx.sim.run(until=horizon, max_events=max_events)
            if max_events is None and self.spec.grace > 0:
                deadline = horizon + self.spec.grace
                while (
                    any(
                        link.node.outstanding_packets
                        for link in self.zigbee_links.values()
                    )
                    and ctx.sim.now < deadline
                ):
                    ctx.sim.run(until=min(ctx.sim.now + 50e-3, deadline))
        duration = ctx.sim.now
        snapshot = self.probe.snapshot(duration)

        if self.coordinator is not None and hasattr(self.coordinator, "stop"):
            self.coordinator.stop()
        for link in self.zigbee_links.values():
            if hasattr(link.node, "stop"):
                link.node.stop()
            if link.source is not None:
                link.source.stop()
        for link in self.wifi_links.values():
            if link.source is not None:
                link.source.stop()
        if self.roaming is not None:
            self.roaming.stop()
        if self.mobility_process is not None:
            self.mobility_process.stop()

        links: Dict[str, LinkResult] = {}
        for name, link in self.zigbee_links.items():
            node = link.node
            offered = (
                link.source.bursts_generated * link.spec.traffic.n_packets
                if link.source is not None
                else 0
            )
            links[name] = LinkResult(
                name=name,
                offered=offered,
                delivered=node.packets_delivered,
                dropped=getattr(node, "packets_dropped", 0),
                payload_bytes=node.delivered_payload_bytes,
                control_packets=getattr(node, "control_packets_sent", 0),
                delays=list(node.packet_delays),
            )
        wifi: Dict[str, WifiLinkResult] = {}
        for name, link in self.wifi_links.items():
            mac = link.sender.mac
            wifi[name] = WifiLinkResult(
                name=name,
                sent=mac.data_sent,
                delivered=mac.data_delivered,
                low_priority_delays=[d for d, p in mac.delay_records if p == 0],
                high_priority_delays=[d for d, p in mac.delay_records if p > 0],
            )

        result = ScenarioResult(
            scenario=self.spec.name,
            seed=self.seed,
            scheme=self.spec.coordinator.scheme,
            duration=duration,
            spec_fingerprint=self.spec.fingerprint(),
            utilization=snapshot,
            links=links,
            wifi=wifi,
            events_processed=ctx.sim.events_processed,
            trace_digest=stable_hash(dict(ctx.trace.counters)),
        )
        if self.coordinator is not None:
            result.whitespace_airtime = self.coordinator.whitespace_airtime
            result.whitespaces_issued = getattr(
                self.coordinator, "grants_issued",
                getattr(self.coordinator, "whitespaces_issued", 0),
            )
            result.current_whitespace = float(
                getattr(
                    self.coordinator, "current_whitespace",
                    getattr(self.coordinator, "whitespace", 0.0),
                )
            )
        if self.roaming is not None:
            result.extra["roam_handoffs"] = float(self.roaming.handoffs)
            result.extra["roam_pingpongs"] = float(self.roaming.pingpongs)
            result.extra["roam_scans"] = float(self.roaming.scans)
            result.extra["roam_gap_ms"] = self.roaming.gap_ms
        if ctx.faults is not None:
            result.extra.update(ctx.faults.counters())
            registry.record_faults(ctx.faults)
        if registry.enabled:
            registry.record_sim(ctx.sim)
            registry.counter("scenario.links").inc(len(links))
            registry.counter("scenario.zigbee_offered").inc(result.packets_offered)
            registry.counter("scenario.zigbee_delivered").inc(result.packets_delivered)
            registry.counter("scenario.zigbee_dropped").inc(
                sum(link.dropped for link in links.values())
            )
            registry.counter("scenario.control_packets").inc(result.control_packets)
            registry.counter("scenario.whitespaces_issued").inc(result.whitespaces_issued)
            # Granted vs used white-space time: the allocator's over-provision
            # (Fig. 9) — "used" is the ZigBee airtime that actually ran inside.
            registry.gauge("scenario.whitespace_granted_s").set_max(
                result.whitespace_airtime
            )
            registry.gauge("scenario.zigbee_airtime_s").set_max(snapshot.zigbee_airtime)
            registry.gauge("scenario.channel_utilization").set_max(
                snapshot.channel_utilization
            )
        return result


# ======================================================================
# Compilation
# ======================================================================
def _resolve(value, default):
    return value if value is not None else default


def compile_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    calibration: Optional[Calibration] = None,
    faults=None,
    trace_kinds=frozenset(),
) -> CompiledScenario:
    """Turn a validated spec + seed into a ready :class:`CompiledScenario`.

    ``calibration`` overrides the spec's own calibration (the sweep engine
    passes it separately so calibration grids work for scenarios too);
    ``faults`` (a :class:`~repro.faults.FaultPlan`) overrides the spec's
    named ``fault_plan``.
    """
    spec.validate()
    cal = calibration if calibration is not None else spec.calibration
    plan = faults
    if plan is None and spec.fault_plan is not None:
        plan = get_fault_plan(spec.fault_plan)

    scheme = spec.coordinator.scheme
    observer_name = spec.observer_link()
    person_link = (
        (spec.mobility.link or observer_name)
        if spec.mobility.kind == "person"
        else None
    )

    wifi_links: Dict[str, _WifiLinkRuntime] = {}
    zigbee_links: Dict[str, _ZigbeeLinkRuntime] = {}

    if spec.backend == "office":
        office = build_office(
            seed=seed,
            location=spec.location,
            calibration=cal,
            trace_kinds=trace_kinds,
            zigbee_receiver_pos=Position(*spec.zigbee[0].receiver_pos),
            faults=plan,
        )
        ctx = office.ctx
        wl = spec.wifi[0]
        wifi_links[wl.name] = _WifiLinkRuntime(wl, office.wifi_sender, office.wifi_receiver)
        zl = spec.zigbee[0]
        zigbee_links[zl.name] = _ZigbeeLinkRuntime(
            zl, office.zigbee_sender, office.zigbee_receiver
        )
        extra_zigbee = spec.zigbee[1:]
    else:
        ctx = cal.context(seed, trace_kinds=trace_kinds, faults=plan)
        for wl in spec.wifi:
            # CSI observation is only wired where something consumes it:
            # the BiCord coordinator's link, or a person-mobility link.
            with_csi = (wl.name == observer_name and scheme == "bicord") or (
                wl.name == person_link
            )
            sender = WifiDevice(
                ctx, wl.sender, Position(*wl.sender_pos),
                channel=_resolve(wl.channel, cal.wifi_channel),
                tx_power_dbm=_resolve(wl.tx_power_dbm, cal.wifi_tx_power_dbm),
                data_rate_mbps=_resolve(wl.data_rate_mbps, cal.wifi_rate_mbps),
                nonwifi_ed_penalty_db=cal.nonwifi_ed_penalty_db,
            )
            receiver = WifiDevice(
                ctx, wl.receiver, Position(*wl.receiver_pos),
                channel=_resolve(wl.channel, cal.wifi_channel),
                tx_power_dbm=_resolve(wl.tx_power_dbm, cal.wifi_tx_power_dbm),
                data_rate_mbps=_resolve(wl.data_rate_mbps, cal.wifi_rate_mbps),
                with_csi=with_csi,
                csi_model=cal.csi_model() if with_csi else None,
                nonwifi_ed_penalty_db=cal.nonwifi_ed_penalty_db,
            )
            wifi_links[wl.name] = _WifiLinkRuntime(wl, sender, receiver)
        extra_zigbee = spec.zigbee

    for zl in extra_zigbee:
        sender = ZigbeeDevice(
            ctx, zl.sender_name, Position(*zl.sender_pos),
            channel=_resolve(zl.channel, cal.zigbee_channel),
            tx_power_dbm=_resolve(zl.tx_power_dbm, cal.zigbee_data_power_dbm),
        )
        receiver = ZigbeeDevice(
            ctx, zl.receiver_name, Position(*zl.receiver_pos),
            channel=_resolve(zl.channel, cal.zigbee_channel),
        )
        zigbee_links[zl.name] = _ZigbeeLinkRuntime(zl, sender, receiver)

    # Candidate APs for roaming (generic backend only, enforced by
    # validate()).  They carry no traffic source of their own; the roaming
    # client retargets the serving link's uplink at whichever AP it joins.
    ap_devices: List[WifiDevice] = []
    for ap in spec.aps:
        ap_devices.append(
            WifiDevice(
                ctx, ap.name, Position(*ap.pos),
                channel=_resolve(ap.channel, cal.wifi_channel),
                tx_power_dbm=_resolve(ap.tx_power_dbm, cal.wifi_tx_power_dbm),
                data_rate_mbps=_resolve(ap.data_rate_mbps, cal.wifi_rate_mbps),
                nonwifi_ed_penalty_db=cal.nonwifi_ed_penalty_db,
            )
        )

    # ------------------------------------------------------------------
    # Wi-Fi traffic
    # ------------------------------------------------------------------
    priority_sources: List[PriorityWifiSource] = []
    for name, link in wifi_links.items():
        traffic = link.spec.traffic
        if traffic.kind == "none":
            continue
        payload = _resolve(traffic.payload_bytes, cal.wifi_payload_bytes)
        interval = _resolve(traffic.interval, cal.wifi_interval)
        if traffic.kind == "priority":
            source = PriorityWifiSource(
                ctx, link.sender.mac, link.spec.receiver,
                high_proportion=traffic.high_proportion,
                total_duration=_resolve(traffic.total_duration, spec.duration),
                phase_duration=traffic.phase_duration,
                payload_bytes=payload, interval=interval,
                name=f"wifi/{name}",
            )
            link.priority_source = source
            priority_sources.append(source)
        else:
            source = WifiPacketSource(
                ctx, link.sender.mac, link.spec.receiver,
                payload_bytes=payload, interval=interval,
                max_packets=traffic.max_packets,
                name=f"wifi/{name}",
            )
        link.source = source

    # ------------------------------------------------------------------
    # Coordinator + per-link protocol nodes
    # ------------------------------------------------------------------
    grant_policy: Optional[Callable[[], bool]] = None
    if (
        spec.coordinator.honor_priority
        and priority_sources
        and scheme in ("bicord", "ecc")
    ):
        def grant_policy() -> bool:
            return all(source.current_priority == 0 for source in priority_sources)

    observer = wifi_links[observer_name].receiver if observer_name else None
    coordinator = None
    if scheme == "bicord":
        coordinator = BicordCoordinator(
            observer, config=spec.coordinator.bicord, grant_policy=grant_policy
        )
    elif scheme == "ecc":
        coordinator = EccCoordinator(
            observer,
            whitespace=spec.coordinator.ecc_whitespace,
            period=spec.coordinator.ecc_period,
            grant_policy=grant_policy,
        )
    elif scheme == "slow-ctc":
        coordinator = SlowCtcCoordinator(observer, config=spec.coordinator.bicord)

    for name, link in zigbee_links.items():
        zl = link.spec
        if scheme == "bicord":
            node = BicordNode(
                link.sender, zl.receiver_name, config=spec.coordinator.bicord,
                powermap=location_powermap(
                    spec.location, default=zl.signaling_power_dbm
                ),
            )
        elif scheme == "ecc":
            node = EccNode(link.sender, zl.receiver_name)
            coordinator.register(node)
        elif scheme == "slow-ctc":
            node = SlowCtcNode(
                link.sender, zl.receiver_name, coordinator,
                config=spec.coordinator.bicord,
            )
        elif scheme == "csma":
            node = CsmaNode(link.sender, zl.receiver_name)
        else:  # predictive
            node = PredictiveNode(link.sender, zl.receiver_name)
        link.node = node
        link.source = ZigbeeBurstSource(
            ctx, node.offer_burst,
            n_packets=zl.traffic.n_packets,
            payload_bytes=zl.traffic.payload_bytes,
            interval_mean=zl.traffic.interval_mean,
            poisson=zl.traffic.poisson,
            max_bursts=zl.traffic.max_bursts,
            name=name,
            start_delay=zl.traffic.start_delay,
        )

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------
    mobility_process: Optional[TrajectoryProcess] = None
    if spec.mobility.kind == "person":
        csi = wifi_links[person_link].receiver.csi
        rng = ctx.streams.stream("mobility/person")

        def deviation(_now: float) -> float:
            if rng.random() < 0.012:
                return float(rng.uniform(0.3, 0.6))
            return 0.0

        csi.environment_deviation = deviation
    elif spec.mobility.kind == "device":
        target = spec.mobility.link or next(iter(zigbee_links))
        moving = zigbee_links[target].sender
        base = moving.position
        rng = ctx.streams.stream("mobility/device")
        radio = moving.radio

        def wander():
            while True:
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                radius = float(rng.uniform(0.0, 1.0))
                radio.move_to(
                    base.moved(radius * math.cos(angle), radius * math.sin(angle))
                )
                yield 0.1

        Process(ctx.sim, wander(), name="device-mobility")
    elif spec.mobility.kind == "trajectory":
        m = spec.mobility
        target = spec.trajectory_link()
        mover = (
            wifi_links[target].sender
            if target in wifi_links
            else zigbee_links[target].sender
        )
        if m.model == "waypoint":
            trajectory = WaypointTrajectory(
                m.waypoints,
                speed_mps=m.speed_mps,
                leg_speeds=m.leg_speeds,
                loop=m.loop,
            )
        else:  # random-waypoint
            trajectory = RandomWaypointTrajectory(
                area=m.area,
                speed_mps=m.speed_mps,
                pause=m.pause,
                seed=m.rw_seed,
                origin=m.origin,
            )
        mobility_process = TrajectoryProcess(
            ctx, [mover.radio], trajectory, tick=m.tick,
            name=f"trajectory/{target}",
        )

    # ------------------------------------------------------------------
    # Roaming client
    # ------------------------------------------------------------------
    roaming: Optional[RoamingClient] = None
    if spec.aps:
        r = spec.roaming
        roaming_name = spec.roaming_link()
        client_link = wifi_links[roaming_name]
        policy = make_ap_selection_policy(
            r.policy, hysteresis_db=r.hysteresis_db, min_rssi_dbm=r.min_rssi_dbm
        )
        client_source = client_link.source

        def on_associate(ap_name: str) -> None:
            # Retarget the client's uplink traffic at the serving AP.
            if client_source is not None:
                client_source.destination = ap_name

        roaming = RoamingClient(
            ctx,
            client_link.sender,
            [client_link.receiver] + ap_devices,
            policy,
            scan_interval=r.scan_interval,
            handoff_gap=r.handoff_gap,
            pingpong_window=r.pingpong_window,
            on_associate=on_associate,
            name=roaming_name,
        )

    probe = AirtimeProbe(
        wifi_radios=[
            radio
            for link in wifi_links.values()
            for radio in (link.sender.radio, link.receiver.radio)
        ],
        zigbee_radios=[
            radio
            for link in zigbee_links.values()
            for radio in (link.sender.radio, link.receiver.radio)
        ],
    )
    probe.start(0.0)
    return CompiledScenario(
        spec=spec,
        seed=int(seed),
        ctx=ctx,
        wifi_links=wifi_links,
        zigbee_links=zigbee_links,
        coordinator=coordinator,
        probe=probe,
        ap_devices=ap_devices,
        roaming=roaming,
        mobility_process=mobility_process,
    )
