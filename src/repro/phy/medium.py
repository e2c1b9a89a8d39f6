"""The shared wireless medium.

The medium is the meeting point of every radio in a scenario.  It knows which
transmissions are on the air, computes the power each radio receives from
each transmission (path loss + shadowing + per-frame fading, weighted by
spectral overlap), and notifies attached radios when transmissions start and
end so they can lock onto frames, track interference, and re-evaluate their
clear-channel state.

Two different power questions arise and are answered by two methods:

* :meth:`Medium.rx_power_dbm` — the power of one specific transmission at a
  radio, *before* band filtering.  Receivers combine it with
  :func:`~repro.phy.spectrum.overlap_fraction` to get captured power.
* :meth:`Medium.inband_energy_dbm` — the total power inside a radio's receive
  filter right now (noise floor plus all active transmissions), which is what
  energy-detection CCA measures.

At the densities of the scale benchmarks (hundreds of radios) per-radio
Python loops on every transmission would dominate the run time, so the hot
path works on index-aligned numpy arrays (struct of arrays):

* **Link matrix rows** (:class:`_SourceRow`) — path loss and shadowing from
  one source to every attached radio, rebuilt only when the position epoch,
  the radio count, or the source's position object changes.  Per-link fading
  generators are batch-seeded and buffered: each transmission consumes one
  pre-drawn sample per link (a single numpy gather) instead of N generator
  calls.
* **Per-band overlap profiles** — ``overlap_fraction`` and its dB form for
  one transmit band against every radio's band, cached per (band, band
  version).  Zero-overlap radios are masked out of all power math.
* **Slots** (:class:`_Slot`) — per-transmission rx-power and captured-power
  arrays indexed by radio position.
* **Interference accumulators** (:class:`_Accum`) — per-radio running sums
  per technology filter, updated with one vectorized add at transmission
  start.  Removals re-fold lazily (float addition is not invertible
  bitwise), which is the *drift re-sum policy*: a transmission end marks the
  accumulator dirty and the next query rebuilds it from the surviving slots
  in active-set order, which is exactly the scalar left-fold over the
  active set.  Re-sums are counted by the ``medium.accumulator_resyncs``
  telemetry counter.
* **Notification pruning** — a transmission edge is delivered only to the
  radios it can affect (see :meth:`Medium.transmit`).

A radio attached while a transmission is on the air is not covered by that
transmission's slot; its queries take a scalar fold over the active set
until every slot covers it again.

Bitwise-exactness notes (all verified empirically, and pinned by
``tests/golden.json``): elementwise numpy add/sub/mul/div/min/max match the
equivalent scalar operation sequences; ``10.0 ** x`` does **not** (SIMD), so
the mW conversion runs as a scalar loop over the unmasked radios; batched
``Generator.normal(size=B)`` matches B scalar draws from the same stream;
appending a new term to a running sum matches re-folding with the term last,
but removing one does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from ..sim.units import dbm_to_mw, linear_to_db, mw_to_dbm
from .propagation import Channel
from .spectrum import Band, overlap_fraction, overlap_profile


class Technology(Enum):
    """Radio technology of a transmission: decides decodability and BER model."""

    WIFI = "wifi"
    ZIGBEE = "zigbee"
    BLE = "ble"
    MICROWAVE = "microwave"


#: Pre-frozen technology filters for the common energy queries.  Passing one
#: of these (or any ``frozenset``) to :meth:`Medium.interference_mw` /
#: :meth:`Medium.inband_energy_dbm` skips the per-call set build; the filter
#: keys the running interference sum the query reads.
WIFI_ONLY: FrozenSet[Technology] = frozenset((Technology.WIFI,))
ZIGBEE_ONLY: FrozenSet[Technology] = frozenset((Technology.ZIGBEE,))


@dataclass(slots=True)
class Transmission:
    """One frame (or noise burst) on the air."""

    tx_id: int
    source_name: str
    band: Band
    power_dbm: float
    start: float
    duration: float
    technology: Technology
    frame: Any = None
    source: Any = None  # the transmitting Radio, if any

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tx {self.tx_id} {self.technology.value} from {self.source_name} "
            f"[{self.start * 1e3:.3f}..{self.end * 1e3:.3f} ms] {self.power_dbm:.1f} dBm>"
        )


#: Pre-drawn fading samples kept per link.  Each refill is one
#: ``Generator.normal(size=_FADING_BATCH)`` call whose output is bit-identical
#: to the same number of scalar draws.
_FADING_BATCH = 16

#: Stable small-int code per technology, for the vectorized decode screen.
_TECH_INDEX = {tech: i for i, tech in enumerate(Technology)}


class _SourceRow:
    """Per-source link state: path loss, shadowing, buffered fading."""

    __slots__ = (
        "n",
        "src_index",
        "epoch",
        "src_pos",
        "loss",
        "shadow",
        "gens",
        "buf",
        "head",
        "count",
        "warm",
    )

    def __init__(self, n: int, src_index: int, epoch: int, src_pos: Any):
        self.n = n
        self.src_index = src_index  # -1 when the source is not an attached radio
        self.epoch = epoch
        self.src_pos = src_pos
        self.loss = np.zeros(n)
        self.shadow = np.zeros(n)
        self.gens: List[Any] = [None] * n
        self.buf = np.zeros((n, _FADING_BATCH))
        self.head = np.zeros(n, dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)
        # The first transmission of a row draws scalars (cheap for one-shot
        # sources); buffers engage from the second transmission on.
        self.warm = False


class _Slot:
    """Array state of one active transmission, indexed by radio position.

    ``dec`` is the demodulator-weighted power (captured × bandwidth
    dilution), precomputed so ``decoding_interference_mw`` folds over plain
    array reads.
    """

    __slots__ = ("n", "src_index", "rx_dbm", "cap", "dec", "tx")

    def __init__(
        self,
        n: int,
        src_index: int,
        rx_dbm: np.ndarray,
        cap: np.ndarray,
        dec: np.ndarray,
        tx: Transmission,
    ):
        self.n = n
        self.src_index = src_index
        self.rx_dbm = rx_dbm
        self.cap = cap
        self.dec = dec
        self.tx = tx


class _Accum:
    """A per-radio running interference sum for one technology filter.

    ``kind`` selects which transmissions contribute: ``"all"`` (no filter),
    ``"set"`` (technology in ``techs``), ``"wifi"`` / ``"other"`` (the two
    noise-seeded carrier-sense buckets).  ``seed`` is the per-radio base
    value each re-fold starts from (zero, or the noise floor for CCA).
    """

    __slots__ = ("kind", "techs", "seed", "totals", "dirty_all", "dirty")

    def __init__(self, kind: str, techs: Optional[FrozenSet[Technology]], n: int):
        self.kind = kind
        self.techs = techs
        self.seed: Optional[np.ndarray] = None  # None means zeros
        self.totals = np.zeros(n)
        self.dirty_all = True
        self.dirty: set = set()

    def matches(self, technology: Technology) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "set":
            return technology in self.techs
        if self.kind == "wifi":
            return technology is Technology.WIFI
        return technology is not Technology.WIFI


class Medium:
    """Shared channel connecting all radios of a scenario."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[_telemetry.MetricsRegistry] = None,
    ):
        self.sim = sim
        self.channel = channel
        self.trace = trace or TraceRecorder(enabled_kinds=set())
        registry = telemetry if telemetry is not None else _telemetry.NULL
        self.telemetry = registry
        self._broadcasts = registry.counter("medium.broadcasts")
        self._vector_links = registry.counter("medium.vector_links")
        self._masked_radios = registry.counter("medium.masked_radios")
        self._accumulator_resyncs = registry.counter("medium.accumulator_resyncs")
        # Link-state rows rebuilt after a position-epoch advance, making
        # topology-churn cost visible (see ``move_many``).
        self._link_rows_rebuilt = registry.counter("medium.link_rows_rebuilt")
        self.radios: List[Any] = []
        # Name-indexed view of ``radios`` (O(1) lookup and duplicate check);
        # the list is kept for deterministic ordered iteration.
        self._radio_index: Dict[str, Any] = {}
        self._active: Dict[int, Transmission] = {}
        self._tx_ids = itertools.count(1)
        #: Bumped on every transmission start/end.  The in-band energy at any
        #: radio is **piecewise-constant between epochs**, which is what the
        #: segment-based RSSI capture relies on.
        self.state_epoch = 0
        self._energy_observers: List[Callable[[], None]] = []
        # Per-technology count of active transmissions (O(1) busy_with).
        self._tech_active: Dict[Technology, int] = {t: 0 for t in Technology}
        # Powers of a transmission at a radio its slot does not cover (one
        # attached mid-transmission), keyed by (tx_id, radio name): the rx
        # power in dBm, and the captured power with the receive band it was
        # computed for (BLE hops reassign ``radio.band``).
        self._rx_power: Dict[Tuple[int, str], float] = {}
        self._captured_mw: Dict[Tuple[int, str], Tuple[Any, float]] = {}
        # Radio names with such entries, so ``_finish`` pops only those.
        self._tx_touched: Dict[int, set] = {}

        # Per-radio arrays, indexed by attach order.
        self._index_of: Dict[str, int] = {}
        self._noise_mw = np.zeros(0)
        self._band_low = np.zeros(0)
        self._band_high = np.zeros(0)
        self._band_bw = np.zeros(0)
        self._sens = np.zeros(0)
        self._tech_code = np.zeros(0, dtype=np.int64)
        #: Radios whose MAC re-plans on medium events (or has no known flag);
        #: they are notified on every transmission edge.
        self._sensitive = np.zeros(0, dtype=bool)
        #: Indices of radios currently holding a reception lock (maintained
        #: through ``on_radio_lock_changed``).
        self._locked: set = set()
        #: Bumped whenever any radio's band changes or a radio attaches;
        #: keys the per-band overlap profiles.
        self._band_version = 0
        self._rows: Dict[str, _SourceRow] = {}
        self._profiles: Dict[Tuple[Any, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._slots: Dict[int, _Slot] = {}
        #: Radios with index >= _cover_n are not covered by every active
        #: slot (attached mid-transmission); their queries take the scalar
        #: fold over the active set.
        self._cover_n = 0
        self._accs: Dict[Any, _Accum] = {}
        self._cca_wifi: Optional[_Accum] = None
        self._cca_other: Optional[_Accum] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, radio: Any) -> None:
        """Register a radio.  The radio's ``medium`` attribute is set."""
        if radio.name in self._radio_index:
            raise ValueError(f"duplicate radio name {radio.name!r}")
        self.radios.append(radio)
        self._radio_index[radio.name] = radio
        radio.medium = self
        self._index_of[radio.name] = len(self.radios) - 1
        self._noise_mw = np.append(self._noise_mw, dbm_to_mw(radio.noise_floor_dbm))
        band = radio.band
        self._band_low = np.append(self._band_low, band.low_mhz)
        self._band_high = np.append(self._band_high, band.high_mhz)
        self._band_bw = np.append(self._band_bw, band.bandwidth_mhz)
        self._sens = np.append(self._sens, radio.sensitivity_dbm)
        self._tech_code = np.append(
            self._tech_code, _TECH_INDEX.get(radio.technology, -1)
        )
        self._sensitive = np.append(self._sensitive, self._mac_sensitive(radio))
        self._band_version += 1
        for acc in self._all_accs():
            acc.totals = np.append(acc.totals, 0.0)
            if acc.seed is not None:
                acc.seed = self._noise_mw
        if not self._slots:
            self._cover_n = len(self.radios)

    def radio_by_name(self, name: str) -> Any:
        try:
            return self._radio_index[name]
        except KeyError:
            raise KeyError(name) from None

    def move_many(self, moves: Iterable[Tuple[Any, Any]]) -> None:
        """Relocate several radios with a single gain invalidation.

        Equivalent to calling :meth:`~repro.devices.base.Radio.move_to` on
        each ``(radio, position)`` pair, but the channel's position epoch
        advances **once** for the whole batch instead of once per radio.
        Link-row rebuilds are lazy (they happen on the next transmission
        that consults a stale row), so batching a trajectory tick's N moves
        costs one epoch bump and at most one rebuild per active source —
        not N.
        """
        moved = 0
        for radio, position in moves:
            radio.position = position
            moved += 1
        if moved:
            self.channel.invalidate_gains()

    def on_radio_retuned(self, radio: Any) -> None:
        """Hook called by :meth:`Radio.retune` when a radio's band changes."""
        j = self._index_of.get(radio.name)
        if j is None:
            return
        band = radio.band
        self._band_low[j] = band.low_mhz
        self._band_high[j] = band.high_mhz
        self._band_bw[j] = band.bandwidth_mhz
        self._band_version += 1
        # Refresh this radio's captured power in every active slot.
        for slot in self._slots.values():
            if j >= slot.n or j == slot.src_index:
                continue
            # slot.tx, not an _active lookup: a slot lingers through its end
            # notifications, and a retune from inside one must still
            # refresh it.
            tx = slot.tx
            fraction = overlap_fraction(tx.band, band)
            if fraction <= 0.0:
                slot.cap[j] = 0.0
            else:
                slot.cap[j] = dbm_to_mw(float(slot.rx_dbm[j]) + linear_to_db(fraction))
            slot.dec[j] = float(slot.cap[j]) * min(
                1.0, tx.band.overlapped_mhz(band) / band.bandwidth_mhz
            )
        for acc in self._all_accs():
            acc.dirty.add(j)

    @staticmethod
    def _mac_sensitive(radio: Any) -> bool:
        """Whether ``radio`` must see every transmission edge.

        True when its MAC re-plans on medium events; MACs without the
        ``medium_event_sensitive`` flag are conservatively treated as
        sensitive.  A radio with no MAC at all is insensitive
        (``_notify_mac`` is a no-op), but may become sensitive later —
        MAC assignment re-fires :meth:`on_radio_mac_changed`.
        """
        mac = radio.mac
        if mac is None:
            return False
        return bool(getattr(mac, "medium_event_sensitive", True))

    def on_radio_mac_changed(self, radio: Any) -> None:
        """Hook called when a radio's MAC layer is (re)assigned.

        Re-reads the MAC's ``medium_event_sensitive`` flag, which decides
        whether the radio can be skipped when its notification would be a
        no-op.
        """
        j = self._index_of.get(radio.name)
        if j is not None and self.radios[j] is radio:
            self._sensitive[j] = self._mac_sensitive(radio)

    def on_radio_lock_changed(self, radio: Any, locked: bool) -> None:
        """Hook called on every reception-lock transition of ``radio``.

        A locked radio must see every transmission edge (interference
        segments, cross-technology overlap log), so the medium tracks the
        locked set through this hook.
        """
        j = self._index_of.get(radio.name)
        if j is None or self.radios[j] is not radio:
            return
        if locked:
            self._locked.add(j)
        else:
            self._locked.discard(j)

    def _all_accs(self) -> Iterable[_Accum]:
        yield from self._accs.values()
        if self._cca_wifi is not None:
            yield self._cca_wifi
        if self._cca_other is not None:
            yield self._cca_other

    # ------------------------------------------------------------------
    # State epochs and energy observers
    # ------------------------------------------------------------------
    def add_energy_observer(self, callback: Callable[[], None]) -> None:
        """Register ``callback()`` to run whenever the on-air set changes.

        Observers fire *after* the medium state (active set, cached rx
        powers) reflects the change, so reading any energy query from inside
        the callback sees the new piecewise-constant level.  RSSI samplers
        use this to enumerate the energy-constant segments of a capture
        window without scheduling per-sample events.
        """
        self._energy_observers.append(callback)

    def remove_energy_observer(self, callback: Callable[[], None]) -> None:
        """Unregister a callback added by :meth:`add_energy_observer`."""
        try:
            self._energy_observers.remove(callback)
        except ValueError:
            pass

    def _bump_state(self) -> None:
        self.state_epoch += 1
        if self._energy_observers:
            for callback in tuple(self._energy_observers):
                callback()

    # ------------------------------------------------------------------
    # Link rows and band profiles
    # ------------------------------------------------------------------
    def _source_row(self, source: Any) -> _SourceRow:
        name = source.name
        n = len(self.radios)
        epoch = self.channel.position_epoch
        row = self._rows.get(name)
        if (
            row is not None
            and row.n == n
            and row.epoch == epoch
            and row.src_pos is source.position
        ):
            return row
        if row is not None:
            # A true rebuild (stale epoch/position/size), not a first build:
            # this is the per-source cost of topology churn that
            # ``Medium.move_many`` batches down to one epoch advance.
            self._link_rows_rebuilt.inc()
        # Identity check: an emitter sharing a name with a radio must not
        # cause that radio to be skipped (sources are skipped by identity).
        idx = self._index_of.get(name)
        src_index = idx if idx is not None and self.radios[idx] is source else -1
        new = _SourceRow(n, src_index, epoch, source.position)
        channel = self.channel
        radios = self.radios
        channel.ensure_shadowing(name, [r.name for r in radios])
        # Bypass the per-pair ``channel.link_budget`` wrapper: its cache probe
        # and tuple packing dominate a full-row build.  ``loss_db`` is the
        # exact scalar function the wrapper calls, and the shadowing terms
        # were just prefetched by ``ensure_shadowing`` from the same per-pair
        # streams, so the values are bitwise-identical to per-pair
        # ``channel.rx_power_dbm`` calls.
        loss_db = channel.path_loss.loss_db
        dist = source.position.distance_to
        if channel.fading.shadowing_sigma_db > 0.0:
            shadow_cache = channel._shadowing_cache
            loss_list = [0.0] * n
            shadow_list = [0.0] * n
            for j, radio in enumerate(radios):
                if j == src_index:
                    continue
                rx_name = radio.name
                loss_list[j] = loss_db(dist(radio.position))
                key = (name, rx_name) if name <= rx_name else (rx_name, name)
                shadow_list[j] = shadow_cache[key]
            new.loss = np.asarray(loss_list)
            new.shadow = np.asarray(shadow_list)
        else:
            loss_list = [0.0] * n
            for j, radio in enumerate(radios):
                if j != src_index:
                    loss_list[j] = loss_db(dist(radio.position))
            new.loss = np.asarray(loss_list)
        if channel.fading.fading_sigma_db > 0.0:
            rx_names = [r.name for j, r in enumerate(self.radios) if j != src_index]
            gens = channel.ensure_fading_generators(name, rx_names)
            it = iter(gens)
            for j in range(n):
                if j != src_index:
                    new.gens[j] = next(it)
        if row is not None:
            # Unconsumed buffered fading samples are already drawn from the
            # per-link streams; they must survive a rebuild (radio indices
            # are append-only, so the old arrays map onto the new prefix).
            old_n = row.n
            new.buf[:old_n] = row.buf
            new.head[:old_n] = row.head
            new.count[:old_n] = row.count
            new.warm = row.warm
        self._rows[name] = new
        return new

    def _band_profile(self, band: Any) -> Tuple[np.ndarray, np.ndarray]:
        key = (band, self._band_version)
        profile = self._profiles.get(key)
        if profile is None:
            fraction, dilution = overlap_profile(
                band, self._band_low, self._band_high, self._band_bw
            )
            mask = fraction <= 0.0
            unique, inverse = np.unique(fraction, return_inverse=True)
            # linear_to_db per *unique* fraction, scalar (bitwise parity with
            # the per-pair call); masked entries never read their ltd.
            ltd = np.array(
                [linear_to_db(v) if v > 0.0 else 0.0 for v in unique.tolist()]
            )[inverse]
            profile = (mask, ltd, dilution)
            if len(self._profiles) > 256:
                self._profiles.clear()
            self._profiles[key] = profile
        return profile

    def _draw_fading_vector(self, row: _SourceRow, sigma: float) -> np.ndarray:
        """One fading sample per link, consumed from the per-link buffers."""
        n = row.n
        if not row.warm:
            row.warm = True
            fading = np.zeros(n)
            for j in range(n):
                if j != row.src_index:
                    fading[j] = row.gens[j].normal(0.0, sigma)
            return fading
        need = row.count == 0
        if row.src_index >= 0:
            need[row.src_index] = False
        if need.any():
            buf = row.buf
            head = row.head
            count = row.count
            gens = row.gens
            for j in np.nonzero(need)[0]:
                buf[j] = gens[j].normal(0.0, sigma, _FADING_BATCH)
                head[j] = 0
                count[j] = _FADING_BATCH
        fading = row.buf[np.arange(n), row.head]
        row.head += 1
        row.count -= 1
        if row.src_index >= 0:
            js = row.src_index
            fading[js] = 0.0
            row.head[js] = 0
            row.count[js] = 0
        return fading

    def _draw_fading_scalar(self, src_name: str, rx_name: str) -> float:
        """Query-time fading draw for one link, buffer-aware.

        Radios attached mid-transmission query rx power lazily; the draw must
        come from the next position in the per-link stream, so a buffered
        sample (if any) is consumed first.
        """
        sigma = self.channel.fading.fading_sigma_db
        if sigma <= 0.0:
            return 0.0
        row = self._rows.get(src_name)
        if row is not None:
            j = self._index_of.get(rx_name)
            if j is not None and j < row.n and j != row.src_index and row.count[j] > 0:
                value = float(row.buf[j, row.head[j]])
                row.head[j] += 1
                row.count[j] -= 1
                return value
        return self.channel.frame_fading_db(src_name, rx_name)

    # ------------------------------------------------------------------
    # Transmissions
    # ------------------------------------------------------------------
    def transmit(
        self,
        source: Any,
        duration: float,
        power_dbm: float,
        band: Any,
        technology: Technology,
        frame: Any = None,
    ) -> Transmission:
        """Put a transmission on the air from ``source`` (a Radio or emitter).

        Received powers at every other radio are drawn now (one fading sample
        per link per frame) and frozen for the lifetime of the transmission.
        Affected radios are notified, then an end event is scheduled.
        """
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        tx = Transmission(
            tx_id=next(self._tx_ids),
            source_name=source.name,
            band=band,
            power_dbm=power_dbm,
            start=self.sim.now,
            duration=duration,
            technology=technology,
            frame=frame,
            source=source,
        )
        self._active[tx.tx_id] = tx
        self._tech_active[technology] += 1
        self._broadcasts.inc()
        self._tx_touched[tx.tx_id] = set()

        row = self._source_row(source)
        n = row.n
        js = row.src_index
        sigma = self.channel.fading.fading_sigma_db
        if sigma > 0.0:
            fading = self._draw_fading_vector(row, sigma)
            # mean + fading, in ``Channel.rx_power_dbm``'s operation order:
            # ((power - loss) + shadow) + fading.
            rx_dbm = ((power_dbm - row.loss) + row.shadow) + fading
        else:
            # ``Channel.rx_power_dbm`` still adds the (zero) fading term.
            rx_dbm = ((power_dbm - row.loss) + row.shadow) + 0.0
        mask, ltd, dilution = self._band_profile(band)
        cap = np.zeros(n)
        active_idx = np.nonzero(~mask)[0]
        scaled = (rx_dbm + ltd) / 10.0
        # Scalar pow: numpy's vectorized 10.0**x takes a SIMD path whose
        # low bits differ from the scalar libm pow ``dbm_to_mw`` uses.
        cap[active_idx] = [10.0 ** v for v in scaled[active_idx].tolist()]
        if js >= 0:
            cap[js] = 0.0
        slot = _Slot(n, js, rx_dbm, cap, cap * dilution, tx)
        self._slots[tx.tx_id] = slot
        if n < self._cover_n:
            self._cover_n = n
        links = n - 1 if js >= 0 else n
        self._vector_links.inc(links)
        masked = int(mask.sum())
        if js >= 0 and mask[js]:
            masked -= 1
        self._masked_radios.inc(masked)

        # Appending a term to a running float sum is exact; every clean
        # accumulator picks the new transmission up in O(radios).
        for acc in self._all_accs():
            if not acc.dirty_all and acc.matches(technology):
                acc.totals += cap

        self._bump_state()
        self.trace.record(
            self.sim.now,
            "medium.tx_start",
            source=source.name,
            technology=technology.value,
            duration=duration,
            power_dbm=power_dbm,
        )
        # Notification pruning: a start notification only *does* anything for
        # a radio that (a) could lock onto this transmission, (b) already
        # holds a reception lock, or (c) has an event-sensitive MAC.  (a) is
        # screened vectorized with the exact checks Radio.on_transmission_start
        # performs (technology, band equality, rx power vs. sensitivity) —
        # false positives are re-filtered by the radio, false negatives are
        # impossible.  Everyone else would run a provably empty no-op, so
        # pruning changes nothing observable.  Radios are notified in attach
        # order.
        notify = self._sensitive.copy()
        if frame is not None:
            notify |= (
                (self._tech_code == _TECH_INDEX[technology])
                & (self._band_low == band.low_mhz)
                & (self._band_high == band.high_mhz)
                & (self._band_bw == band.bandwidth_mhz)
                & (rx_dbm >= self._sens)
            )
        for j in self._locked:
            notify[j] = True
        if js >= 0:
            notify[js] = False
        radios = self.radios
        for j in np.nonzero(notify)[0].tolist():
            radios[j].on_transmission_start(tx)
        self.sim.schedule(duration, self._finish, tx)
        return tx

    def _finish(self, tx: Transmission) -> None:
        if self._active.pop(tx.tx_id, None) is not None:
            self._tech_active[tx.technology] -= 1
            if tx.tx_id in self._slots:
                # Float subtraction would not reproduce the left-fold over the
                # active set; mark every matching accumulator for a lazy
                # exact re-sum.
                for acc in self._all_accs():
                    if acc.matches(tx.technology):
                        acc.dirty_all = True
                self._cover_n = min(
                    (
                        self._slots[tx_id].n
                        for tx_id in self._active
                        if tx_id in self._slots
                    ),
                    default=len(self.radios),
                )
        self._bump_state()
        self.trace.record(self.sim.now, "medium.tx_end", source=tx.source_name)
        # End notifications are no-ops except for locked radios and
        # event-sensitive MACs (there is no lock-acquisition path on an end
        # edge), so the pruned set needs no decode screen.
        notify = self._sensitive.copy()
        for j in self._locked:
            notify[j] = True
        src_j = self._index_of.get(tx.source_name, -1)
        if src_j >= 0 and self.radios[src_j] is not tx.source:
            src_j = -1
        if src_j >= 0:
            notify[src_j] = False
        radios = self.radios
        for j in np.nonzero(notify)[0].tolist():
            radios[j].on_transmission_end(tx)
        # The slot outlives the end notifications: receivers reading this
        # transmission's power from inside ``on_transmission_end`` must see
        # the frozen values, not a fresh fallback draw.
        self._slots.pop(tx.tx_id, None)
        for name in self._tx_touched.pop(tx.tx_id, ()):
            self._rx_power.pop((tx.tx_id, name), None)
            self._captured_mw.pop((tx.tx_id, name), None)
        if tx.source is not None and hasattr(tx.source, "on_own_transmission_end"):
            tx.source.on_own_transmission_end(tx)

    def active_transmissions(self) -> Iterable[Transmission]:
        return self._active.values()

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------
    def rx_power_dbm(self, tx: Transmission, radio: Any) -> float:
        """Unfiltered received power of ``tx`` at ``radio`` (frozen per frame)."""
        slot = self._slots.get(tx.tx_id)
        if slot is not None:
            j = self._index_of.get(radio.name)
            if j is not None and j < slot.n and j != slot.src_index:
                return float(slot.rx_dbm[j])
        # A radio attached mid-transmission, or a query about an already
        # finished transmission: draw once, with a buffer-aware fading draw.
        key = (tx.tx_id, radio.name)
        try:
            return self._rx_power[key]
        except KeyError:
            rx_dbm = self.channel.mean_rx_power_dbm(
                tx.power_dbm,
                tx.source_name,
                tx.source.position,
                radio.name,
                radio.position,
            ) + self._draw_fading_scalar(tx.source_name, radio.name)
            self._rx_power[key] = rx_dbm
            touched = self._tx_touched.get(tx.tx_id)
            if touched is not None:
                touched.add(radio.name)
            return rx_dbm

    def captured_power_mw(self, tx: Transmission, radio: Any) -> float:
        """Power of ``tx`` that enters ``radio``'s receive filter, in mW.

        The value is a pure function of the frozen per-frame rx power and
        the two bands.  Outside a slot it is cached per (transmission,
        radio) with the receive band it was computed for, so a radio that
        retunes mid-flight (BLE hopping) transparently recomputes.
        """
        slot = self._slots.get(tx.tx_id)
        if slot is not None:
            j = self._index_of.get(radio.name)
            if j is not None and j < slot.n and j != slot.src_index:
                return float(slot.cap[j])
        key = (tx.tx_id, radio.name)
        entry = self._captured_mw.get(key)
        if entry is not None and entry[0] is radio.band:
            return entry[1]
        fraction = overlap_fraction(tx.band, radio.band)
        if fraction <= 0.0:
            value = 0.0
        else:
            value = dbm_to_mw(self.rx_power_dbm(tx, radio) + linear_to_db(fraction))
        if tx.tx_id in self._active:
            self._captured_mw[key] = (radio.band, value)
            touched = self._tx_touched.get(tx.tx_id)
            if touched is not None:
                touched.add(radio.name)
        return value

    def interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
        technologies: Optional[Iterable[Technology]] = None,
    ) -> float:
        """Sum of captured powers of active transmissions at ``radio``, mW.

        The radio's own transmission is always excluded; ``exclude`` lists
        additional transmission ids (typically the frame being received).

        ``technologies`` is ideally a ``frozenset`` (see :data:`WIFI_ONLY` /
        :data:`ZIGBEE_ONLY`): other iterables are frozen per call.  Queries
        without ``exclude`` read a per-filter running sum, so repeated CCA
        checks between transmission boundaries cost one array read.
        """
        if technologies is None:
            wanted = None
        elif type(technologies) is frozenset:
            wanted = technologies
        else:
            wanted = frozenset(technologies)
        j = self._index_of.get(radio.name)
        if exclude or j is None or j >= self._cover_n:
            # Scalar fold over the active set (radios attached mid-flight are
            # not covered by every slot; ``exclude`` has no running sum).
            total = 0.0
            for tx in self._active.values():
                if tx.source is radio or tx.tx_id in exclude:
                    continue
                if wanted is not None and tx.technology not in wanted:
                    continue
                total += self.captured_power_mw(tx, radio)
            return total
        acc = self._accs.get(wanted)
        if acc is None:
            if wanted is None:
                acc = _Accum("all", None, len(self.radios))
            else:
                acc = _Accum("set", wanted, len(self.radios))
            self._accs[wanted] = acc
        return self._acc_value(acc, j)

    def decoding_interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
    ) -> float:
        """Interference power *as seen by the demodulator*, in mW.

        A narrowband interferer inside a wideband receiver corrupts only the
        spectrum it overlaps (a few OFDM subcarriers, a slice of the DSSS
        spread), so its effect on decoding is its captured power diluted by
        ``overlap / receiver_bandwidth``.  A 2 MHz ZigBee signal inside a
        20 MHz Wi-Fi receiver is 10 dB less harmful than a co-channel Wi-Fi
        signal of the same received power — which is why ZigBee control
        packets degrade Wi-Fi PRR by only a few percent (Sec. V) instead of
        destroying every overlapped frame.  Energy-detection CCA, in
        contrast, measures raw in-band power (:meth:`interference_mw`).
        """
        j = self._index_of.get(radio.name)
        total = 0.0
        if j is None or j >= self._cover_n:
            for tx in self._active.values():
                if tx.source is radio or tx.tx_id in exclude:
                    continue
                captured = self.captured_power_mw(tx, radio)
                if captured <= 0.0:
                    continue
                dilution = min(
                    1.0, tx.band.overlapped_mhz(radio.band) / radio.band.bandwidth_mhz
                )
                total += captured * dilution
            return total
        # Fold the per-slot demodulator-weighted powers over the *active*
        # set (a slot lingers through its transmission's end notifications
        # and must not contribute there), in insertion order.  The radio's
        # own transmissions contribute an exact 0.0 (source column masked),
        # and so do zero-capture entries (0.0 x dilution).
        slots = self._slots
        for tx_id in self._active:
            if tx_id in exclude:
                continue
            slot = slots.get(tx_id)
            if slot is not None:
                total += slot.dec[j]
        return float(total)

    def cca_power_mw(
        self,
        radio: Any,
        now: float,
        min_age: float = 0.0,
    ) -> Tuple[float, float]:
        """Carrier-sense power buckets at ``radio``: ``(wifi_mw, other_mw)``.

        Both buckets are seeded with the radio's noise floor and accumulate
        the captured power of every active transmission at least ``min_age``
        old (excluding the radio's own), split by whether the transmitter is
        Wi-Fi.  This is the fold behind Wi-Fi preamble/energy detection
        (``WifiMac._medium_busy``); with ``min_age == 0`` it is served from
        two noise-seeded running sums.
        """
        j = self._index_of.get(radio.name)
        if min_age != 0.0 or j is None or j >= self._cover_n:
            noise_mw = dbm_to_mw(radio.noise_floor_dbm)
            wifi_mw = noise_mw
            other_mw = noise_mw
            for tx in self._active.values():
                if tx.source is radio:
                    continue
                if now - tx.start < min_age:
                    continue
                captured = self.captured_power_mw(tx, radio)
                if tx.technology is Technology.WIFI:
                    wifi_mw += captured
                else:
                    other_mw += captured
            return wifi_mw, other_mw
        if self._cca_wifi is None:
            n = len(self.radios)
            self._cca_wifi = _Accum("wifi", None, n)
            self._cca_wifi.seed = self._noise_mw
            self._cca_other = _Accum("other", None, n)
            self._cca_other.seed = self._noise_mw
        return (
            self._acc_value(self._cca_wifi, j),
            self._acc_value(self._cca_other, j),
        )

    def inband_energy_dbm(
        self,
        radio: Any,
        technologies: Optional[Iterable[Technology]] = None,
    ) -> float:
        """Total in-band power at ``radio``: noise floor + interference, dBm."""
        noise_mw = dbm_to_mw(radio.noise_floor_dbm)
        return mw_to_dbm(noise_mw + self.interference_mw(radio, technologies=technologies))

    def busy_with(self, technology: Technology) -> bool:
        """True if any transmission of ``technology`` is currently on the air.

        O(1): the medium keeps a per-technology count of active
        transmissions instead of scanning the active set.
        """
        return self._tech_active[technology] > 0

    # ------------------------------------------------------------------
    # Interference accumulators
    # ------------------------------------------------------------------
    def _repair(self, acc: _Accum) -> None:
        """Exact re-sum: rebuild ``acc.totals`` from the surviving slots.

        Each slot contributes over its own radio range: a radio outside some
        active slot's range (attached mid-transmission) is at or beyond
        ``_cover_n`` and served by the scalar fold, so entries here only need
        the slots that cover them.
        """
        if acc.seed is None:
            totals = np.zeros(len(self.radios))
        else:
            totals = acc.seed.copy()
        for tx_id, tx in self._active.items():
            if not acc.matches(tx.technology):
                continue
            slot = self._slots.get(tx_id)
            if slot is None:
                continue
            totals[: slot.n] += slot.cap
        acc.totals = totals
        acc.dirty_all = False
        acc.dirty.clear()
        self._accumulator_resyncs.inc()

    def _repair_radio(self, acc: _Accum, j: int) -> None:
        if acc.seed is None:
            total = 0.0
        else:
            total = float(acc.seed[j])
        for tx_id, tx in self._active.items():
            if not acc.matches(tx.technology):
                continue
            slot = self._slots.get(tx_id)
            if slot is not None and j < slot.n:
                total += float(slot.cap[j])
        acc.totals[j] = total
        acc.dirty.discard(j)

    def _acc_value(self, acc: _Accum, j: int) -> float:
        if acc.dirty_all:
            self._repair(acc)
        elif j in acc.dirty:
            self._repair_radio(acc, j)
        return float(acc.totals[j])
