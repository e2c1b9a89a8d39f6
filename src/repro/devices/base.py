"""Radios and devices.

A :class:`Radio` is the PHY endpoint living on the
:class:`~repro.phy.medium.Medium`: it transmits frames, locks onto incoming
frames of its own technology, tracks the interference each locked frame
experiences (as piecewise-constant segments), and at frame end draws the
reception outcome from the segment SINRs and the frame's BER curve.

A :class:`Device` couples a radio with a MAC object and a position; concrete
devices (Wi-Fi appliance, ZigBee node, interferers) live in sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..phy.medium import Medium, Technology, Transmission
from ..phy.modulation import packet_success_probability
from ..phy.propagation import Position
from ..phy.spectrum import Band
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import TraceRecorder
from ..sim.units import dbm_to_mw, mw_to_dbm, thermal_noise_dbm


@dataclass
class RxInfo:
    """What the PHY knows about a received (or lost) frame."""

    rx_power_dbm: float
    success_probability: float
    min_sinr_db: float
    #: Non-own-technology transmissions that overlapped the frame:
    #: (technology, source name, unfiltered rx power dBm, overlap seconds).
    overlaps: List[Tuple[Technology, str, float, float]] = field(default_factory=list)


class _ReceptionContext:
    """Tracks one locked frame: its signal power and interference history."""

    __slots__ = ("tx", "signal_dbm", "segments", "segment_start", "overlap_log", "_overlap_open")

    def __init__(self, tx: Transmission, signal_dbm: float, now: float, interference_mw: float):
        self.tx = tx
        self.signal_dbm = signal_dbm
        # Closed segments: (duration_s, interference_mw).
        self.segments: List[Tuple[float, float]] = []
        self.segment_start: Tuple[float, float] = (now, interference_mw)
        # Cross-technology overlaps: source name -> [technology, rx_dbm, accumulated_s]
        self.overlap_log: dict = {}
        self._overlap_open: dict = {}

    def change_interference(self, now: float, interference_mw: float) -> None:
        start, level = self.segment_start
        if now > start:
            self.segments.append((now - start, level))
        self.segment_start = (now, interference_mw)

    def open_overlap(self, now: float, other: Transmission, rx_dbm: float) -> None:
        self._overlap_open[other.tx_id] = (now, other.technology, other.source_name, rx_dbm)

    def close_overlap(self, now: float, other: Transmission) -> None:
        opened = self._overlap_open.pop(other.tx_id, None)
        if opened is None:
            return
        start, technology, source_name, rx_dbm = opened
        entry = self.overlap_log.setdefault(source_name, [technology, rx_dbm, 0.0])
        entry[1] = max(entry[1], rx_dbm)
        entry[2] += now - start

    def finalize(self, now: float) -> None:
        self.change_interference(now, 0.0)
        for tx_id in list(self._overlap_open):
            opened = self._overlap_open.pop(tx_id)
            start, technology, source_name, rx_dbm = opened
            entry = self.overlap_log.setdefault(source_name, [technology, rx_dbm, 0.0])
            entry[1] = max(entry[1], rx_dbm)
            entry[2] += now - start


class Radio:
    """A half-duplex transceiver attached to the medium."""

    def __init__(
        self,
        name: str,
        position: Position,
        band: Band,
        technology: Technology,
        sim: Simulator,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        sensitivity_dbm: float = -85.0,
        noise_figure_db: float = 7.0,
    ):
        self.name = name
        self.position = position
        self._band = band
        self.technology = technology
        self.sim = sim
        self.streams = streams
        self.trace = trace or TraceRecorder(enabled_kinds=set())
        self.sensitivity_dbm = sensitivity_dbm
        self.noise_floor_dbm = thermal_noise_dbm(band.bandwidth_hz, noise_figure_db)
        self.medium: Optional[Medium] = None
        self._mac: Any = None  # set by the MAC layer (see the ``mac`` property)
        self.energy_meter: Any = None  # optional; see repro.devices.energy
        self.enabled = True
        self.current_tx: Optional[Transmission] = None
        self._lock: Optional[_ReceptionContext] = None
        # Reception-outcome stream, resolved once (streams.stream caches by
        # name; this skips the f-string per received frame).
        self._rx_rng = streams.stream(f"phy/rx/{name}")
        # PHY statistics
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_lost = 0
        self.tx_airtime = 0.0

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------
    @property
    def band(self) -> Band:
        """The current receive/transmit band.

        Assigning a different :class:`Band` notifies the medium (see
        :meth:`Medium.on_radio_retuned <repro.phy.medium.Medium.on_radio_retuned>`)
        so its precomputed per-band tables are refreshed; prefer
        the explicit :meth:`retune` in new code.
        """
        return self._band

    @band.setter
    def band(self, band: Band) -> None:
        previous = getattr(self, "_band", None)
        self._band = band
        if band is not previous:
            medium = getattr(self, "medium", None)
            if medium is not None:
                medium.on_radio_retuned(self)

    def retune(self, band: Band) -> None:
        """Switch to ``band`` (e.g. a BLE hop).  The noise floor is unchanged:
        all modeled bands share a bandwidth per technology."""
        self.band = band

    @property
    def mac(self) -> Any:
        """The attached MAC layer.

        Assigning notifies the medium (:meth:`Medium.on_radio_mac_changed
        <repro.phy.medium.Medium.on_radio_mac_changed>`), which skips no-op
        medium-event notifications and so re-reads the MAC's
        ``medium_event_sensitive`` flag on every assignment.
        """
        return self._mac

    @mac.setter
    def mac(self, mac: Any) -> None:
        self._mac = mac
        medium = getattr(self, "medium", None)
        if medium is not None:
            medium.on_radio_mac_changed(self)

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit_frame(self, frame: Any, power_dbm: float) -> Transmission:
        """Send ``frame`` at ``power_dbm``.  Drops any in-progress reception."""
        if self.medium is None:
            raise RuntimeError(f"radio {self.name} is not attached to a medium")
        if self.current_tx is not None:
            raise RuntimeError(f"radio {self.name} is already transmitting")
        if self._lock is not None:
            # Half duplex: transmitting aborts the frame being received.
            self._abort_lock()
        duration = frame.duration()
        tx = self.medium.transmit(
            self, duration, power_dbm, self.band, self.technology, frame=frame
        )
        self.current_tx = tx
        self.frames_sent += 1
        self.tx_airtime += duration
        if self.energy_meter is not None:
            self.energy_meter.charge_tx(duration, power_dbm)
        return tx

    def on_own_transmission_end(self, tx: Transmission) -> None:
        if self.current_tx is tx:
            self.current_tx = None
        if self.mac is not None and tx.frame is not None:
            self.mac.on_transmit_complete(tx.frame)

    @property
    def is_transmitting(self) -> bool:
        return self.current_tx is not None

    # ------------------------------------------------------------------
    # Receive path (called by the medium)
    # ------------------------------------------------------------------
    def _captured_mw(self, tx: Transmission) -> float:
        return self.medium.captured_power_mw(tx, self)

    def _current_interference_mw(self, exclude_tx_id: int) -> float:
        return self.medium.decoding_interference_mw(self, exclude=(exclude_tx_id,))

    def _decodable(self, tx: Transmission) -> bool:
        return (
            self.enabled
            and tx.frame is not None
            and tx.technology is self.technology
            and tx.band == self.band
            and self.current_tx is None
            and self._lock is None
        )

    def on_transmission_start(self, tx: Transmission) -> None:
        if self.medium is None:
            return
        if self._decodable(tx):
            rx_dbm = self.medium.rx_power_dbm(tx, self)
            if rx_dbm >= self.sensitivity_dbm:
                interference = self._current_interference_mw(tx.tx_id)
                self._set_lock(_ReceptionContext(tx, rx_dbm, self.sim.now, interference))
                # Record any cross-technology transmissions already on the air.
                for other in self.medium.active_transmissions():
                    if other.tx_id != tx.tx_id and other.source is not self:
                        if other.technology is not self.technology:
                            self._lock.open_overlap(
                                self.sim.now, other, self.medium.rx_power_dbm(other, self)
                            )
                self._notify_mac()
                return
        if self._lock is not None and tx.tx_id != self._lock.tx.tx_id:
            self._lock.change_interference(
                self.sim.now, self._current_interference_mw(self._lock.tx.tx_id)
            )
            if tx.technology is not self.technology:
                self._lock.open_overlap(self.sim.now, tx, self.medium.rx_power_dbm(tx, self))
        self._notify_mac()

    def on_transmission_end(self, tx: Transmission) -> None:
        if self._lock is not None:
            if tx.tx_id == self._lock.tx.tx_id:
                self._finish_reception()
                self._notify_mac()
                return
            self._lock.change_interference(
                self.sim.now, self._current_interference_mw(self._lock.tx.tx_id)
            )
            if tx.technology is not self.technology:
                self._lock.close_overlap(self.sim.now, tx)
        self._notify_mac()

    def _set_lock(self, lock: Optional[_ReceptionContext]) -> None:
        """Install/clear the reception lock, keeping the medium informed.

        Kernels that skip no-op notifications track the locked set through
        :meth:`Medium.on_radio_lock_changed
        <repro.phy.medium.Medium.on_radio_lock_changed>`; every lock
        transition must go through here.
        """
        self._lock = lock
        if self.medium is not None:
            self.medium.on_radio_lock_changed(self, lock is not None)

    def _abort_lock(self) -> None:
        if self._lock is None:
            return
        self.frames_lost += 1
        self._set_lock(None)

    def _finish_reception(self) -> None:
        context = self._lock
        assert context is not None
        self._set_lock(None)
        context.finalize(self.sim.now)
        frame = context.tx.frame
        noise_mw = dbm_to_mw(self.noise_floor_dbm)
        total_bits = max(frame.bits, 1)
        duration = max(context.tx.duration, 1e-12)
        success_p = 1.0
        min_sinr = float("inf")
        for seg_duration, interference_mw in context.segments:
            sinr_db = context.signal_dbm - mw_to_dbm(noise_mw + interference_mw)
            min_sinr = min(min_sinr, sinr_db)
            seg_bits = max(1, round(total_bits * seg_duration / duration))
            success_p *= packet_success_probability(frame.ber(sinr_db), seg_bits)
        overlaps = [
            (tech, source_name, rx_dbm, seconds)
            for source_name, (tech, rx_dbm, seconds) in context.overlap_log.items()
        ]
        info = RxInfo(
            rx_power_dbm=context.signal_dbm,
            success_probability=success_p,
            min_sinr_db=min_sinr if min_sinr != float("inf") else 0.0,
            overlaps=overlaps,
        )
        if self.energy_meter is not None:
            self.energy_meter.charge_rx(context.tx.duration)
        delivered = self._rx_rng.random() < success_p
        if delivered:
            self.frames_received += 1
            self.trace.record(
                self.sim.now, "phy.rx_ok", radio=self.name, source=frame.source,
                frame_type=frame.frame_type.value,
            )
            if self.mac is not None:
                self.mac.on_frame_received(frame, info)
        else:
            self.frames_lost += 1
            self.trace.record(
                self.sim.now, "phy.rx_lost", radio=self.name, source=frame.source,
                frame_type=frame.frame_type.value, p=success_p,
            )
            if self.mac is not None:
                self.mac.on_frame_lost(frame, info)

    def _notify_mac(self) -> None:
        if self.mac is not None:
            self.mac.on_medium_event()

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def energy_dbm(self) -> float:
        """In-band energy as seen by energy-detection CCA (excludes own tx)."""
        return self.medium.inband_energy_dbm(self)

    def energy_dbm_of(self, technologies) -> float:
        """In-band energy restricted to the given technologies (plus noise)."""
        return self.medium.inband_energy_dbm(self, technologies=technologies)

    @property
    def is_receiving(self) -> bool:
        return self._lock is not None

    def receiving_frame(self) -> Optional[Any]:
        return self._lock.tx.frame if self._lock is not None else None

    def receiving_transmission(self) -> Optional[Transmission]:
        """The transmission currently locked for reception, if any."""
        return self._lock.tx if self._lock is not None else None

    def move_to(self, position: Position) -> None:
        """Relocate the radio (mobility experiments).

        Active transmissions keep their cached rx powers — frames are short
        relative to motion, so this is equivalent to sampling the position at
        frame start.  The channel's deterministic gain cache is invalidated
        (position epoch advance) so every *subsequent* frame sees the new
        distance.
        """
        self.position = position
        if self.medium is not None:
            self.medium.channel.invalidate_gains()


class Device:
    """Base class binding a radio and a MAC together."""

    def __init__(self, name: str, radio: Radio):
        self.name = name
        self.radio = radio

    @property
    def position(self) -> Position:
        return self.radio.position

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
