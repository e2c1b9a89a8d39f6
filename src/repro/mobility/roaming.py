"""Multi-AP association state, AP-selection policies, and handoff accounting.

A :class:`RoamingClient` binds one Wi-Fi client to the AP set of an ESS.
It scans at a fixed interval using the channel's *mean* received power —
deterministic path loss + per-pair shadowing, no fading draw, so scanning
never perturbs any link's RNG stream — and hands the readings to a
pluggable :class:`APSelectionPolicy`.  A reassociation is modeled as MAC
events: the client suppresses its own transmissions for the handoff gap
(scan/auth/assoc airtime it cannot use) and queues a small management
frame to the new AP, then the ``on_associate`` callback retargets the
client's traffic.

Policies are pure decision functions registered by name
(:data:`AP_SELECTION_POLICIES`); ship: ``strongest-rssi`` (with a
hysteresis margin that damps ping-pong) and ``sticky`` (stay until the
serving AP drops below a floor).  Telemetry counters ``roam.handoffs``,
``roam.gap_ms``, ``roam.pingpongs``, and ``roam.scans`` report through the
active :mod:`repro.telemetry` registry.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..mac.frames import wifi_mgmt_frame
from ..sim.process import Process


class APReading(NamedTuple):
    """One scan sample: AP name and mean RSSI at the client (dBm)."""

    name: str
    rssi_dbm: float


class APSelectionPolicy:
    """Contract for AP selection.

    ``select(current, readings)`` returns the name of the AP the client
    should be associated with; returning ``current`` means stay.  Policies
    must be pure (no side effects, no randomness): the same readings must
    always produce the same decision, so runs stay reproducible.
    """

    name = "base"

    def select(self, current: str, readings: Sequence[APReading]) -> str:
        raise NotImplementedError


class StrongestRssiPolicy(APSelectionPolicy):
    """Roam to the strongest AP once it clears a hysteresis margin.

    The margin (dB) damps ping-pong at cell edges: the challenger must beat
    the serving AP by ``hysteresis_db``, not merely tie it.  If the serving
    AP is absent from the readings the client joins the strongest outright.
    """

    name = "strongest-rssi"

    def __init__(self, hysteresis_db: float = 4.0):
        if hysteresis_db < 0.0:
            raise ValueError(f"hysteresis_db must be >= 0, got {hysteresis_db}")
        self.hysteresis_db = float(hysteresis_db)

    def select(self, current: str, readings: Sequence[APReading]) -> str:
        if not readings:
            return current
        best = max(readings, key=lambda r: r.rssi_dbm)
        if best.name == current:
            return current
        serving = next((r.rssi_dbm for r in readings if r.name == current), None)
        if serving is None or best.rssi_dbm >= serving + self.hysteresis_db:
            return best.name
        return current


class StickyPolicy(APSelectionPolicy):
    """Stay on the serving AP until it drops below an RSSI floor.

    The baseline most stacks implement: no proactive roaming at all — only
    when the serving AP falls under ``min_rssi_dbm`` does the client move,
    and then to the strongest candidate.
    """

    name = "sticky"

    def __init__(self, min_rssi_dbm: float = -75.0):
        self.min_rssi_dbm = float(min_rssi_dbm)

    def select(self, current: str, readings: Sequence[APReading]) -> str:
        if not readings:
            return current
        serving = next((r.rssi_dbm for r in readings if r.name == current), None)
        if serving is not None and serving >= self.min_rssi_dbm:
            return current
        return max(readings, key=lambda r: r.rssi_dbm).name


#: name -> policy factory.  Factories take keyword parameters;
#: :func:`make_ap_selection_policy` filters its kwargs by signature so one
#: spec can carry the union of all policies' knobs.
AP_SELECTION_POLICIES: Dict[str, Callable[..., APSelectionPolicy]] = {}


def register_ap_selection_policy(
    name: str, factory: Callable[..., APSelectionPolicy]
) -> None:
    """Register (or replace) a policy factory under ``name``."""
    AP_SELECTION_POLICIES[name] = factory


def ap_selection_policy_names() -> Tuple[str, ...]:
    return tuple(sorted(AP_SELECTION_POLICIES))


def make_ap_selection_policy(name: str, **params) -> APSelectionPolicy:
    """Instantiate a registered policy, keeping only the kwargs it accepts."""
    try:
        factory = AP_SELECTION_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown AP-selection policy {name!r}; "
            f"available: {', '.join(ap_selection_policy_names())}"
        ) from None
    allowed = set(inspect.signature(factory).parameters)
    return factory(**{k: v for k, v in params.items() if k in allowed})


register_ap_selection_policy(StrongestRssiPolicy.name, StrongestRssiPolicy)
register_ap_selection_policy(StickyPolicy.name, StickyPolicy)


class RoamingClient:
    """Association state of one Wi-Fi client across the APs of an ESS.

    At construction the client associates to the strongest AP (power-on
    scan — no handoff counted, no gap).  Thereafter a scan every
    ``scan_interval`` seconds feeds the policy; when it picks a different
    AP the client reassociates: ``handoff_gap`` seconds of self-suppression
    on the MAC, one management frame to the new AP, counters, and the
    ``on_associate`` callback (which the scenario compiler uses to retarget
    the client's traffic source).  A handoff back to the AP just left
    within ``pingpong_window`` seconds also counts as a ping-pong.
    """

    def __init__(
        self,
        ctx,
        client,
        aps: Sequence,
        policy: APSelectionPolicy,
        scan_interval: float = 0.25,
        handoff_gap: float = 30e-3,
        pingpong_window: float = 2.0,
        on_associate: Optional[Callable[[str], None]] = None,
        name: str = "",
    ):
        if not aps:
            raise ValueError("a roaming client needs at least one AP")
        if scan_interval <= 0.0:
            raise ValueError(f"scan_interval must be > 0, got {scan_interval}")
        if handoff_gap < 0.0:
            raise ValueError(f"handoff_gap must be >= 0, got {handoff_gap}")
        self.ctx = ctx
        self.client = client
        self.aps = list(aps)
        self.policy = policy
        self.scan_interval = float(scan_interval)
        self.handoff_gap = float(handoff_gap)
        self.pingpong_window = float(pingpong_window)
        self.on_associate = on_associate

        registry = ctx.telemetry
        self._handoff_counter = registry.counter("roam.handoffs")
        self._gap_counter = registry.counter("roam.gap_ms")
        self._pingpong_counter = registry.counter("roam.pingpongs")
        self._scan_counter = registry.counter("roam.scans")

        self.handoffs = 0
        self.pingpongs = 0
        self.scans = 0
        self.gap_s = 0.0
        #: (time, from_ap, to_ap) per handoff, in order.
        self.handoff_log: List[Tuple[float, str, str]] = []
        self._prev_ap: Optional[str] = None
        self._last_handoff_at = -float("inf")

        readings = self.scan()
        self.current_ap = max(readings, key=lambda r: r.rssi_dbm).name
        if self.on_associate is not None:
            self.on_associate(self.current_ap)
        self._process = Process(
            ctx.sim,
            self._run(),
            start_delay=self.scan_interval,
            name=name or f"roaming/{client.name}",
        )

    # ------------------------------------------------------------------
    def scan(self) -> List[APReading]:
        """Mean RSSI of every AP at the client's current position.

        Uses :meth:`Channel.mean_rx_power_dbm` — path loss plus the cached
        per-pair shadowing term, *no* per-frame fading draw — so a scan is
        deterministic and consumes nothing from any fading stream.
        """
        channel = self.ctx.medium.channel
        radio = self.client.radio
        return [
            APReading(
                ap.name,
                channel.mean_rx_power_dbm(
                    ap.mac.tx_power_dbm, ap.name, ap.radio.position,
                    radio.name, radio.position,
                ),
            )
            for ap in self.aps
        ]

    def _run(self):
        while True:
            readings = self.scan()
            self.scans += 1
            self._scan_counter.inc()
            target = self.policy.select(self.current_ap, readings)
            if target != self.current_ap:
                self._reassociate(target)
            yield self.scan_interval

    def _reassociate(self, target: str) -> None:
        now = self.ctx.sim.now
        previous = self.current_ap
        self.handoffs += 1
        self._handoff_counter.inc()
        if (
            target == self._prev_ap
            and now - self._last_handoff_at <= self.pingpong_window
        ):
            self.pingpongs += 1
            self._pingpong_counter.inc()
        self._prev_ap = previous
        self._last_handoff_at = now
        self.current_ap = target
        self.gap_s += self.handoff_gap
        self._gap_counter.inc(int(round(self.handoff_gap * 1e3)))
        self.handoff_log.append((now, previous, target))
        mac = self.client.mac
        if self.handoff_gap > 0.0:
            mac.suppress_until(now + self.handoff_gap)
        mac.enqueue_front(
            wifi_mgmt_frame(
                self.client.name, target, mac.basic_rate,
                created_at=now, reassoc_from=previous,
            )
        )
        self.ctx.trace.record(
            now, "roam.handoff",
            client=self.client.name, frm=previous, to=target,
        )
        if self.on_associate is not None:
            self.on_associate(target)

    def stop(self) -> None:
        self._process.stop()

    @property
    def gap_ms(self) -> float:
        """Total handoff-gap time spent, in milliseconds."""
        return self.gap_s * 1e3
