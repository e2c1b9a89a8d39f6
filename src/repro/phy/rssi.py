"""RSSI sampling at a ZigBee node.

ZiSense-style CTI detection reads the radio's RSSI register at high frequency
(the paper samples at 40 kHz for 5 ms) and classifies the interferer from
time-domain features of the trace.

The in-band energy at a radio is piecewise-constant between transmission
start/end events, so a capture does not sample the medium per sample.  The
sampler registers as a :meth:`~repro.phy.medium.Medium.add_energy_observer`,
records one (time, energy) breakpoint per medium state change, and
synthesizes the whole trace at the end of the window with one vectorized
noise draw and one vectorized quantization.  A capture costs **one**
simulator event plus one energy query per medium transition.

What a capture produces is that of a register read once per sample: sample
instants are the *accumulated* floating-point sums ``t += period`` (not
``start + k*period``); the vectorized ``Generator.normal(0, s, n)`` draw
consumes the PCG64 stream exactly like ``n`` scalar draws; and ``np.rint``
matches Python's banker's rounding.  A sample instant that coincides
*exactly* (as a float) with a medium transition reads the post-transition
energy.  ``tests/golden.json`` pins the captured traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from .. import telemetry as _telemetry
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams

if TYPE_CHECKING:  # imported lazily to avoid package-init cycles
    from ..devices.base import Radio


@dataclass
class RssiTrace:
    """A captured RSSI sequence."""

    start_time: float
    rate_hz: float
    samples_dbm: np.ndarray

    @property
    def duration(self) -> float:
        return len(self.samples_dbm) / self.rate_hz

    def __len__(self) -> int:
        return len(self.samples_dbm)


class RssiSampler:
    """Captures RSSI traces at a ZigBee radio."""

    def __init__(
        self,
        radio: "Radio",
        sim: Simulator,
        streams: RandomStreams,
        measurement_noise_db: float = 1.0,
        quantize: bool = True,
        telemetry: Optional[_telemetry.MetricsRegistry] = None,
    ):
        self.radio = radio
        self.sim = sim
        self.measurement_noise_db = measurement_noise_db
        self.quantize = quantize
        self._rng = streams.stream(f"rssi/{radio.name}")
        self._active = False
        registry = telemetry if telemetry is not None else _telemetry.NULL
        self._captures_counter = registry.counter("rssi.captures")
        self._samples_counter = registry.counter("rssi.samples")
        self._segments_counter = registry.counter("rssi.segments")
        self._events_counter = registry.counter("rssi.capture_events")

    def capture(
        self,
        duration: float,
        rate_hz: float,
        on_done: Callable[[RssiTrace], None],
    ) -> None:
        """Capture ``duration`` seconds at ``rate_hz``; call ``on_done(trace)``.

        Only one capture may be active at a time (a real radio has one RSSI
        register).
        """
        if self._active:
            raise RuntimeError(f"RSSI sampler on {self.radio.name} is already capturing")
        if duration <= 0 or rate_hz <= 0:
            raise ValueError("duration and rate must be positive")
        n_samples = max(1, round(duration * rate_hz))
        meter = getattr(self.radio, "energy_meter", None)
        if meter is not None:
            # High-rate RSSI sampling keeps the receiver on for the whole
            # capture window.
            meter.charge_listen(duration, label="rssi_capture")
        self._active = True
        self._captures_counter.inc()
        self._samples_counter.inc(n_samples)
        medium = self.radio.medium
        start_time = self.sim.now
        period = 1.0 / rate_hz
        self._events_counter.inc()
        # Per-sample instants as a running float sum seeded with the start
        # time (cumsum accumulates left to right).
        increments = np.full(n_samples, period)
        increments[0] = start_time
        times = np.cumsum(increments)
        # Energy breakpoints: the level that holds from each time onward.
        bp_times: List[float] = [start_time]
        bp_energy: List[float] = [self.radio.energy_dbm()]

        def _on_change() -> None:
            # Several medium transitions can land on the same instant (a
            # transmission ending exactly as another starts); only the last
            # level at a given time is observable, so overwrite in place
            # rather than growing the breakpoint list with dead entries.
            now = self.sim.now
            if bp_times[-1] == now:
                bp_energy[-1] = self.radio.energy_dbm()
            else:
                bp_times.append(now)
                bp_energy.append(self.radio.energy_dbm())

        if medium is not None:
            medium.add_energy_observer(_on_change)

        def _complete() -> None:
            if medium is not None:
                medium.remove_energy_observer(_on_change)
            self._active = False
            self._segments_counter.inc(len(bp_times))
            trace = RssiTrace(
                start_time, rate_hz, self._synthesize(times, bp_times, bp_energy)
            )
            on_done(trace)

        self.sim.schedule_at(float(times[-1]), _complete)

    def _synthesize(
        self,
        times: np.ndarray,
        bp_times: List[float],
        bp_energy: List[float],
    ) -> np.ndarray:
        """Expand breakpoints to per-sample values; add noise and quantize."""
        # Last breakpoint at-or-before each sample instant.  Duplicated
        # breakpoint times resolve to the latest recorded level.
        idx = np.searchsorted(np.asarray(bp_times), times, side="right") - 1
        values = np.asarray(bp_energy)[idx]
        if self.measurement_noise_db > 0.0:
            values = values + self._rng.normal(
                0.0, self.measurement_noise_db, len(times)
            )
        if self.quantize:
            # Banker's rounding, like the builtin round() of ``read_now``,
            # into a default-int array.
            return np.rint(values).astype(np.asarray([0]).dtype)
        return values

    def read_now(self) -> float:
        """One instantaneous RSSI reading (used for quick channel checks)."""
        value = self.radio.energy_dbm()
        if self.measurement_noise_db > 0.0:
            value += float(self._rng.normal(0.0, self.measurement_noise_db))
        if self.quantize:
            value = round(value)
        return value
