"""Sec. VII-D extension: ZigBee / Bluetooth coexistence.

The paper argues BiCord's directly-coordinated allocation generalizes to
other technology pairs.  In the BLE world the "white space" is *spectral*
instead of temporal: a BLE master that attributes its connection-event
failures to the channels overlapping a ZigBee transmitter excludes them
from its hop map (AFH), permanently granting the ZigBee node its 2 MHz —
the ZigBee transmissions themselves act as the cross-technology signal.

The experiment runs a fast BLE connection (audio-rate connection events)
next to a busy ZigBee link and reports both sides' health with AFH on and
off, split into an early window (before the hop map adapts) and a late one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines.csma import CsmaNode
from ..devices import ZigbeeDevice
from ..mac.ble import BleConnection
from ..phy.propagation import Position
from ..traffic.generators import ZigbeeBurstSource
from .compat import effective_seed, trial_config
from .result import ResultBase
from .topology import Calibration


@dataclass
class BleTrialConfig:
    """Parameters of the ZigBee/BLE coexistence extension (Sec. VII-D)."""

    afh_enabled: bool = True
    duration: float = 12.0
    connection_interval: float = 7.5e-3
    burst_interval: float = 50e-3


@dataclass
class BleCoexistenceResult(ResultBase):
    afh_enabled: bool
    duration: float
    ble_events: int
    ble_success_rate: float
    ble_early_success_rate: float  # first fifth of the run
    ble_late_success_rate: float  # last fifth of the run
    excluded_channels: List[int]
    zigbee_delivered: int
    zigbee_offered: int
    zigbee_mean_delay: float
    seed: int = -1

    @property
    def zigbee_delivery_ratio(self) -> float:
        return self.zigbee_delivered / self.zigbee_offered if self.zigbee_offered else 0.0


def run_ble_coexistence(
    config: Optional[BleTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> BleCoexistenceResult:
    """One ZigBee link + one BLE connection sharing the 2.4 GHz band."""
    cfg = trial_config(config, BleTrialConfig)
    seed = effective_seed(seed)
    afh_enabled = cfg.afh_enabled
    duration = cfg.duration
    burst_interval = cfg.burst_interval
    cal = calibration or Calibration()
    ctx = cal.context(seed=seed, trace_kinds=set())

    ble = BleConnection(
        ctx, "ble", Position(0.0, 0.0), Position(1.5, 0.0),
        connection_interval=cfg.connection_interval,
        afh_enabled=afh_enabled,
    )
    zigbee_sender = ZigbeeDevice(
        ctx, "ZS", Position(0.8, 0.6), channel=cal.zigbee_channel, tx_power_dbm=0.0
    )
    zigbee_receiver = ZigbeeDevice(
        ctx, "ZR", Position(2.0, 1.0), channel=cal.zigbee_channel
    )
    node = CsmaNode(zigbee_sender, "ZR")
    # A demanding ZigBee workload (~50% duty cycle): heavy enough that the
    # hop channels overlapping its 2 MHz fail consistently.
    source = ZigbeeBurstSource(
        ctx, node.offer_burst, n_packets=8, payload_bytes=80,
        interval_mean=burst_interval, poisson=True,
        max_bursts=int(duration / burst_interval),
    )

    # Sample the BLE success rate in windows to expose the AFH transition.
    checkpoints = []

    def sample():
        checkpoints.append((ble.event_successes, ble.event_failures))

    n_windows = 5
    for i in range(1, n_windows + 1):
        ctx.sim.schedule(duration * i / n_windows - 1e-6, sample)

    ble.start()
    ctx.sim.run(until=duration)
    ble.stop()
    node_delays = node.packet_delays

    def window_rate(index: int) -> float:
        prev = checkpoints[index - 1] if index > 0 else (0, 0)
        cur = checkpoints[index]
        successes = cur[0] - prev[0]
        total = successes + (cur[1] - prev[1])
        return successes / total if total else 0.0

    return BleCoexistenceResult(
        afh_enabled=afh_enabled,
        duration=duration,
        ble_events=ble.events,
        ble_success_rate=ble.event_success_rate,
        ble_early_success_rate=window_rate(0),
        ble_late_success_rate=window_rate(len(checkpoints) - 1),
        excluded_channels=ble.excluded_channels(),
        zigbee_delivered=node.packets_delivered,
        zigbee_offered=source.bursts_generated * 8,
        zigbee_mean_delay=(sum(node_delays) / len(node_delays)) if node_delays else 0.0,
        seed=seed,
    )
