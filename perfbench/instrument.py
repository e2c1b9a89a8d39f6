"""Hooks the benchmark installs into the simulator from outside.

Two levels, both installed by :meth:`Probe.install` before any simulation is
built:

* **Probe** (every run, traced or not).  Wraps ``SimContext.__init__`` so the
  benchmark sees each simulation as it is created, and wraps that
  simulator's ``run`` so each call runs in chunks of :data:`CHUNK_S`
  simulated seconds.  The chunks fire the same events in the same order;
  they only let the benchmark read host time and events per chunk.  The
  cost is one extra run call per chunk.
* **Tracer** (the traced run only).  Wraps the public entry points of each
  layer (table :data:`ENTRY_POINTS`, plus the medium, channel and stream
  factory of the first context) and every scheduled event callback in a
  span from :class:`~tracer.SpanRecorder`.  A callback's span is named after
  the layer of its owner's module (:func:`layer_of_module`).

No program file is modified; everything is patched in the benchmark's own
process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from tracer import SpanRecorder

#: Each simulation's run is cut into chunks of this much simulated time,
#: timed one by one, so a host stall hits one chunk of one repetition and
#: the per-chunk median over repetitions drops it.
CHUNK_S = 0.01
#: The first chunks, up to 0.04 simulated s, are warm-up (link rows,
#: streams, first frames); the rest is steady state.
WARMUP_CHUNKS = 4
#: Key of a run that had no horizon to cut against (counted as steady).
TAIL_CHUNK = -1

#: Module prefix -> layer, most specific first.  Callbacks and spans of
#: modules no prefix matches land in ``other``.
MODULE_LAYERS = (
    ("repro.phy.propagation", "phy.link"),
    ("repro.sim.rng", "phy.link"),
    ("repro.phy.modulation", "phy.ber"),
    ("repro.phy.csi", "phy.csi"),
    ("repro.phy.rssi", "phy.csi"),
    ("repro.phy", "phy.medium"),
    ("repro.sim", "sim"),
    ("repro.devices", "devices"),
    ("repro.mac.wifi", "mac.wifi"),
    ("repro.mac.zigbee", "mac.zigbee"),
    ("repro.core", "core"),
    ("repro.baselines", "baselines"),
    ("repro.traffic", "traffic"),
    ("repro.mobility", "mobility"),
    ("repro.experiments", "experiments"),
    ("repro.scenarios", "scenarios"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


#: Layer entry points wrapped in the traced run: (layer, module, class or
#: None for a module-level function, attribute names).  A span is named
#: ``"<layer>:<attribute>"``.
ENTRY_POINTS = (
    ("devices.reception", "repro.devices.base", "Radio",
     ("on_transmission_start", "on_transmission_end")),
    ("devices", "repro.devices.base", "Radio",
     ("transmit_frame", "on_own_transmission_end", "energy_dbm", "energy_dbm_of",
      "move_to")),
    ("phy.ber", "repro.mac.frames", "Frame", ("ber",)),
    ("phy.ber", "repro.devices.base", None, ("packet_success_probability",)),
    ("phy.csi", "repro.phy.csi", "CsiObserver", ("_on_frame",)),
    ("mac.wifi", "repro.mac.wifi", "WifiMac",
     ("enqueue", "enqueue_front", "reserve_whitespace", "suppress_until",
      "on_medium_event", "on_transmit_complete", "on_frame_received", "on_frame_lost")),
    ("mac.zigbee", "repro.mac.zigbee", "ZigbeeMac",
     ("send", "send_forced", "send_immediate", "cancel_pending", "cca",
      "on_medium_event", "on_transmit_complete", "on_frame_received", "on_frame_lost")),
    ("core", "repro.core.csi_detector", "ZigbeeSignalDetector", ("observe",)),
    ("core", "repro.core.node", "BicordNode", ("offer_burst",)),
    ("baselines", "repro.baselines.ecc", "EccNode", ("offer_burst", "on_ctc_notification")),
    ("baselines", "repro.baselines.csma", "CsmaNode", ("offer_burst",)),
    ("experiments", "repro.experiments.sweep", None, ("_execute_trial",)),
    ("experiments", "repro.experiments.runner", None, ("build_office",)),
    ("scenarios", "repro.scenarios.compiler", "CompiledScenario", ("run",)),
)

#: Entry points of the context's own medium, channel and stream factory,
#: wrapped on their concrete classes when the first context appears.
MEDIUM_QUERIES = (
    "rx_power_dbm", "captured_power_mw", "decoding_interference_mw",
    "interference_mw", "cca_power_mw", "inband_energy_dbm", "busy_with",
    "active_transmissions",
)
CONTEXT_ENTRY_POINTS = (
    ("phy.medium", "medium", ("transmit", "attach") + MEDIUM_QUERIES),
    ("phy.link", "channel",
     ("link_budget", "ensure_shadowing", "ensure_fading_generators",
      "mean_rx_power_dbm", "frame_fading_db", "rx_power_dbm", "fading_generator",
      "invalidate_gains")),
    ("phy.link", "streams", ("stream", "stream_many", "fork")),
)


def trace_digest(trace) -> str:
    """Digest of a simulation's trace: every record kind and its count."""
    payload = json.dumps(sorted(trace.counters.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class SimRecord:
    """What the probe saw of one simulation, read after each run call.

    ``chunks`` maps a chunk index ``k`` (simulated time ``[k, k+1) *
    CHUNK_S``) to the host seconds and events spent on it.  The record
    keeps no reference to the simulation, so a workload that builds several
    in turn frees each one as it would without the probe.
    """

    __slots__ = ("run_start", "run_s", "chunks", "events", "sim_now", "queue_hwm",
                 "digest", "radios", "streams")

    def __init__(self) -> None:
        self.run_start: Optional[float] = None
        self.run_s = 0.0
        self.chunks: Dict[int, List[float]] = {}
        self.events = 0
        self.sim_now = 0.0
        self.queue_hwm = 0
        self.digest = ""
        self.radios = 0
        self.streams = 0

    def add(self, k: int, host_s: float, events: int) -> None:
        chunk = self.chunks.get(k)
        if chunk is None:
            self.chunks[k] = [host_s, events]
        else:
            chunk[0] += host_s
            chunk[1] += events

    def read(self, ctx) -> None:
        sim = ctx.sim
        self.events = sim.events_processed
        self.sim_now = sim.now
        self.queue_hwm = sim.queue_hwm
        self.digest = trace_digest(ctx.trace)
        self.radios = len(ctx.medium.radios)
        self.streams = len(getattr(ctx.streams, "_streams", ()))


class Probe:
    """Per-simulation chunked timing and bookkeeping, optionally traced."""

    def __init__(self, recorder: Optional[SpanRecorder] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.recorder = recorder
        #: Reads host time for the chunks (CPU time in the untraced run).
        self.clock = clock
        self.sims: List[SimRecord] = []
        #: Entry points that could not be found (their metrics read 0).
        self.missing: List[str] = []
        self.locks = 0
        self.radios_moved = 0
        self._context_patched = False
        self._callback_ids: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.context import SimContext

        original = SimContext.__init__
        probe = self

        def init(ctx, *args, **kwargs):
            original(ctx, *args, **kwargs)
            probe._on_context(ctx)

        SimContext.__init__ = init
        if self.recorder is not None:
            for layer, module, cls, attrs in ENTRY_POINTS:
                self._wrap_entry(layer, module, cls, attrs)

    def _wrap_entry(self, layer, module, cls, attrs) -> None:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{cls}" if cls else module)
            return
        for attr in attrs:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{cls or ''}.{attr}")
                continue
            setattr(owner, attr, self.recorder.wrap(fn, f"{layer}:{attr}"))

    def _wrap_context_classes(self, ctx) -> None:
        recorder = self.recorder
        for layer, field, attrs in CONTEXT_ENTRY_POINTS:
            cls = type(getattr(ctx, field))
            for attr in attrs:
                fn = getattr(cls, attr, None)
                if fn is None:
                    self.missing.append(f"{cls.__name__}.{attr}")
                    continue
                setattr(cls, attr, recorder.wrap(fn, f"{layer}:{attr}"))
        medium_cls = type(ctx.medium)
        probe = self

        lock_changed = medium_cls.on_radio_lock_changed

        def on_radio_lock_changed(medium, radio, locked):
            if locked:
                probe.locks += 1
            return lock_changed(medium, radio, locked)

        medium_cls.on_radio_lock_changed = on_radio_lock_changed
        move_many = recorder.wrap(medium_cls.move_many, "phy.medium:move_many")

        def counted_move_many(medium, moves):
            moves = list(moves)
            probe.radios_moved += len(moves)
            return move_many(medium, moves)

        medium_cls.move_many = counted_move_many

    # ------------------------------------------------------------------
    def _on_context(self, ctx) -> None:
        record = SimRecord()
        self.sims.append(record)
        context = weakref.ref(ctx)
        sim = ctx.sim
        run = sim.run
        if self.recorder is not None:
            if not self._context_patched:
                self._context_patched = True
                self._wrap_context_classes(ctx)
            run = self.recorder.wrap(run, "sim:run")
            self._trace_callbacks(sim)
        clock = self.clock

        def chunked_run(until=None, max_events=None):
            start = clock()
            if record.run_start is None:
                record.run_start = start
            try:
                if until is None:  # no horizon to cut against: one steady piece
                    before = sim.events_processed
                    run(until=until, max_events=max_events)
                    record.add(TAIL_CHUNK, clock() - start, sim.events_processed - before)
                    return
                while True:
                    k = int(sim.now / CHUNK_S + 1e-9)
                    edge = min(until, (k + 1) * CHUNK_S)
                    before, t0 = sim.events_processed, clock()
                    run(until=edge, max_events=max_events)
                    fired = sim.events_processed - before
                    record.add(k, clock() - t0, fired)
                    if max_events is not None:
                        max_events -= fired
                    if sim.now < edge or edge >= until:
                        return  # stopped, out of event budget, or at the horizon
            finally:
                record.run_s += clock() - start
                record.read(context())

        sim.run = chunked_run

    def _trace_callbacks(self, sim) -> None:
        recorder = self.recorder
        dispatch = recorder.dispatcher()
        ids = self._callback_ids
        try:
            from repro.sim.process import Process

            process_step = Process._step
        except (ImportError, AttributeError):
            process_step = None

        def span_id(callback) -> int:
            func = getattr(callback, "__func__", None)
            if func is not None and func is process_step:
                # A process callback belongs to whoever wrote its generator.
                frame = callback.__self__.generator.gi_frame
                module = frame.f_globals.get("__name__", "") if frame is not None else ""
            elif func is not None:
                module = func.__module__
            else:
                module = getattr(callback, "__module__", None) or type(callback).__module__
            nid = ids.get(module)
            if nid is None:
                nid = ids[module] = recorder.intern(f"{layer_of_module(module)}:callback")
            return nid

        schedule, schedule_at = sim.schedule, sim.schedule_at

        def traced_schedule(delay, callback, *args):
            return schedule(delay, dispatch, span_id(callback), callback, *args)

        def traced_schedule_at(when, callback, *args):
            return schedule_at(when, dispatch, span_id(callback), callback, *args)

        sim.schedule = traced_schedule
        sim.schedule_at = traced_schedule_at

    # ------------------------------------------------------------------
    def chunks(self) -> List[Tuple[int, int, float, int]]:
        """Every chunk as (simulation ordinal, chunk index, host s, events)."""
        ran = [r for r in self.sims if r.run_start is not None]
        return [(i, k, host_s, events)
                for i, record in enumerate(ran)
                for k, (host_s, events) in sorted(record.chunks.items())]

    def first_run_start(self) -> Optional[float]:
        starts = [r.run_start for r in self.sims if r.run_start is not None]
        return min(starts) if starts else None

    def digest(self) -> str:
        """One digest over every simulation's trace, in creation order."""
        ran = [r.digest for r in self.sims if r.run_start is not None]
        if len(ran) == 1:
            return ran[0]
        return hashlib.sha256(",".join(ran).encode()).hexdigest()
