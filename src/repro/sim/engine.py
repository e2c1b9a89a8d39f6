"""Discrete-event simulation engine.

The engine is a deterministic queue of timestamped callbacks.  Two
properties matter for reproducibility:

* **Stable ordering** — events fire in ``(time, seq)`` order: events
  scheduled for the same instant fire in the order they were scheduled
  (FIFO tie-break on a monotonically increasing sequence number), so a run
  is a pure function of the seed.
* **O(1) cancellation** — MAC layers constantly re-plan backoff completions
  when the medium state changes; cancelled events are flagged and skipped
  when they surface rather than being removed eagerly.  A threshold-triggered
  compaction drops them once they outnumber pending ones, so cancel-heavy
  workloads cannot grow the queue without bound.

The queue is a calendar queue (Brown 1988): future events are spread over an
array of time buckets — a "time wheel" — so scheduling is an O(1) append and
dispatch amortizes to O(1) per event.  When the wheel reaches a bucket, the
bucket is sorted once (C timsort) and dispatched as a **batch**.  Events
beyond the wheel's horizon wait in an unsorted overflow list and are
migrated into buckets when the wheel reaches them.

Invariants that make the firing order exactly ``(time, seq)``:

* Every in-wheel event's bucket index is ``day & mask`` where
  ``day = int(time / bucket_width)``; the wheel window never exceeds
  ``nbuckets`` days, so a bucket only ever holds events of a single day and
  sorting it by ``(time, seq)`` yields the exact global dispatch order for
  that day.
* Overflow events always lie at or beyond the wheel horizon, and the
  horizon only advances when the wheel is drained, so no overflow event can
  be earlier than any in-wheel event.
* Callbacks that schedule into the day currently being dispatched are
  merge-inserted (``bisect.insort``) into the live batch at the consumption
  pointer, preserving ``(time, seq)`` order for zero-delay chains.

Two implementation notes that matter for throughput (this is the repo's
tightest loop — see ``BENCH_kernels.json``):

* The hot paths are closures over plain cell variables rather than methods
  reading ``self`` attributes: cell access is measurably cheaper than
  attribute access in CPython.
* Queue entries are the :class:`Event` objects themselves, not
  ``(time, seq, event)`` wrapper tuples.  That halves the GC-tracked
  allocations per scheduled event, which halves the collector's
  generational scan pressure — a double-digit percentage of wall time on
  allocation-heavy workloads.

``queue_hwm`` is the *pending* high-water mark (cancelled entries
excluded), ``pending_count()`` is an O(1) live counter, and
``events_processed`` is synchronized at batch boundaries and on
``run()``/``step()`` exit rather than per event.  ``tests/golden.json``
pins the firing order of whole scenarios.
"""

from __future__ import annotations

import time as _time
from bisect import insort
from math import inf
from operator import attrgetter
from typing import Any, Callable, Optional, Tuple

#: Compaction never triggers below this many cancelled-but-queued entries, so
#: small simulations never pay a rebuild.
COMPACT_MIN_CANCELLED = 64

#: Default wheel geometry.  256 buckets of 40 µs cover a 10.24 ms window —
#: a few Wi-Fi frame exchanges — which keeps buckets at a handful of events
#: for the paper's MAC-timescale workloads while staying small enough that
#: empty-bucket scans are cheap.
DEFAULT_NBUCKETS = 256
DEFAULT_BUCKET_WIDTH = 40e-6


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled.  The callback is
    invoked as ``callback(*args)`` with the simulator clock already advanced
    to the event's time.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op.

        The owning simulator is notified so its live pending counter stays
        exact and compaction can trigger; a detached event (``sim=None``)
        just flips the flag.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.9f} seq={self.seq} {name} {state}>"


_new_event = object.__new__

#: Sort key giving the exact dispatch order (FIFO tie-break).
_order = attrgetter("time", "seq")


class Simulator:
    """Deterministic discrete-event simulator on a calendar queue.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=10.0)

    The clock (:attr:`now`) only moves inside :meth:`run` / :meth:`step`.
    ``nbuckets`` (a power of two) and ``bucket_width`` (simulated seconds per
    bucket) set the wheel geometry; they change speed, never the firing
    order.
    """

    def __init__(
        self,
        nbuckets: int = DEFAULT_NBUCKETS,
        bucket_width: float = DEFAULT_BUCKET_WIDTH,
    ) -> None:
        if nbuckets < 2 or nbuckets & (nbuckets - 1):
            raise ValueError(f"nbuckets must be a power of two >= 2, got {nbuckets}")
        if not bucket_width > 0.0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")

        self.now: float = 0.0
        self.events_processed: int = 0
        #: Number of threshold-triggered queue compactions performed.
        self.compactions: int = 0
        #: Cumulative wall-clock seconds spent inside :meth:`run` — profiling
        #: only; the simulation itself never reads it.
        self.wall_time: float = 0.0
        self.nbuckets = nbuckets
        self.bucket_width = bucket_width

        sim = self
        mask = nbuckets - 1
        inv = 1.0 / bucket_width
        buckets = [[] for _ in range(nbuckets)]
        # Pre-bound ``list.append`` per bucket: schedule() calls through this
        # table, skipping the attribute lookup.  Kept in sync wherever a
        # bucket list is replaced (refill extraction, compaction).
        appends = [b.append for b in buckets]
        overflow: list = []
        new_event = _new_event
        to_day = int  # builtin alias in a closure cell (cheaper than global)

        # Closure state.  ``ready`` is the current day's batch, sorted by
        # (time, seq) and consumed by index ``rp`` so interrupted batches
        # (until / stop / max_events) resume exactly where they left off.
        ready: list = []
        rp = 0
        seq = 0
        day = 0  # day currently (or last) dispatched; buckets hold day > this
        horizon = nbuckets  # first day that must go to the overflow list
        wheel = 0  # events currently in buckets (cancelled included)
        pending = 0
        hwm = 0
        cancelled_in_q = 0
        running = False
        stopped = False

        # --------------------------------------------------------------
        # Scheduling
        # --------------------------------------------------------------
        def schedule(delay: float, callback: Callable[..., Any], *args: Any) -> Event:
            nonlocal seq, wheel, pending, hwm
            if delay < 0.0:
                raise SimulationError(f"cannot schedule {delay} s in the past")
            t = sim.now + delay
            s = seq
            seq = s + 1
            ev = new_event(Event)
            ev.time = t
            ev.seq = s
            ev.callback = callback
            ev.args = args
            ev.cancelled = False
            ev.fired = False
            ev._sim = sim
            try:
                d = to_day(t * inv)
            except (OverflowError, ValueError):
                raise SimulationError(
                    f"event times must be finite, got t={t}"
                ) from None
            if d > day:
                if d < horizon:
                    appends[d & mask](ev)
                    wheel += 1
                else:
                    overflow.append(ev)
            else:
                insort(ready, ev, rp, key=_order)
            p = pending + 1
            pending = p
            if p > hwm:
                hwm = p
            return ev

        def schedule_at(t: float, callback: Callable[..., Any], *args: Any) -> Event:
            nonlocal seq, wheel, pending, hwm
            if t < sim.now:
                raise SimulationError(
                    f"cannot schedule at t={t} before current time t={sim.now}"
                )
            s = seq
            seq = s + 1
            ev = new_event(Event)
            ev.time = t
            ev.seq = s
            ev.callback = callback
            ev.args = args
            ev.cancelled = False
            ev.fired = False
            ev._sim = sim
            try:
                d = to_day(t * inv)
            except (OverflowError, ValueError):
                raise SimulationError(
                    f"event times must be finite, got t={t}"
                ) from None
            if d > day:
                if d < horizon:
                    appends[d & mask](ev)
                    wheel += 1
                else:
                    overflow.append(ev)
            else:
                insort(ready, ev, rp, key=_order)
            p = pending + 1
            pending = p
            if p > hwm:
                hwm = p
            return ev

        # --------------------------------------------------------------
        # Wheel advance
        # --------------------------------------------------------------
        def refill() -> bool:
            """Load the next non-empty day's bucket into ``ready``.

            Returns False when the queue is fully drained.  When the wheel
            is empty, jumps straight to the earliest overflow day and
            migrates the overflow events that fall inside the new window —
            overflow events are never earlier than in-wheel ones, so the
            jump cannot skip anything.
            """
            nonlocal day, horizon, wheel, ready, rp
            if wheel == 0:
                if not overflow:
                    return False
                day = min(int(e.time * inv) for e in overflow) - 1
                horizon = day + 1 + nbuckets
                keep = []
                for ev in overflow:
                    d = int(ev.time * inv)
                    if d < horizon:
                        buckets[d & mask].append(ev)
                        wheel += 1
                    else:
                        keep.append(ev)
                overflow[:] = keep
            d = day + 1
            while True:
                b = buckets[d & mask]
                if b:
                    b.sort(key=_order)
                    nb = buckets[d & mask] = []
                    appends[d & mask] = nb.append
                    wheel -= len(b)
                    day = d
                    ready = b
                    rp = 0
                    return True
                d += 1

        # --------------------------------------------------------------
        # Execution
        # --------------------------------------------------------------
        def run(until: Optional[float] = None, max_events: Optional[int] = None) -> None:
            nonlocal rp, running, stopped, pending, cancelled_in_q
            if running:
                raise SimulationError("simulator is not reentrant")
            running = True
            stopped = False
            fired = 0
            wall_start = _time.perf_counter()
            try:
                if until is None and max_events is None:
                    # Tight loop for the drain-everything case: no deadline
                    # or budget checks in the per-event path.
                    i = rp
                    batch = ready
                    while True:
                        if i >= len(batch):
                            rp = i
                            sim.events_processed += fired
                            fired = 0
                            if not refill():
                                break
                            batch = ready
                            i = 0
                            continue
                        ev = batch[i]
                        i += 1
                        if ev.cancelled:
                            cancelled_in_q -= 1
                            continue
                        sim.now = ev.time
                        ev.fired = True
                        pending -= 1
                        fired += 1
                        rp = i
                        ev.callback(*ev.args)
                        i = rp
                        batch = ready
                        if stopped:
                            break
                    rp = i
                    sim.events_processed += fired
                    return
                until_v = inf if until is None else until
                budget = inf if max_events is None else max_events
                i = rp
                batch = ready
                while True:
                    if i >= len(batch):
                        rp = i
                        sim.events_processed += fired
                        fired = 0
                        if not refill():
                            break
                        batch = ready
                        i = 0
                        continue
                    ev = batch[i]
                    if ev.time > until_v:
                        break
                    i += 1
                    if ev.cancelled:
                        cancelled_in_q -= 1
                        continue
                    if budget <= 0.0:
                        i -= 1
                        break
                    budget -= 1.0
                    sim.now = ev.time
                    ev.fired = True
                    pending -= 1
                    fired += 1
                    rp = i
                    ev.callback(*ev.args)
                    i = rp
                    batch = ready
                    if stopped:
                        break
                rp = i
                sim.events_processed += fired
                if until is not None and sim.now < until and not stopped:
                    sim.now = until
            finally:
                running = False
                sim.wall_time += _time.perf_counter() - wall_start

        def step() -> bool:
            nonlocal rp, pending, cancelled_in_q
            while True:
                if rp >= len(ready):
                    if not refill():
                        return False
                ev = ready[rp]
                rp += 1
                if ev.cancelled:
                    cancelled_in_q -= 1
                    continue
                sim.now = ev.time
                ev.fired = True
                pending -= 1
                sim.events_processed += 1
                ev.callback(*ev.args)
                return True

        def stop() -> None:
            nonlocal stopped
            stopped = True

        def peek() -> Optional[float]:
            """Time of the next pending event, or None when drained.

            Prunes cancelled entries from the consumption frontier (and may
            rotate the wheel past empty buckets), so ``peek``/``run``/``step``
            always agree on what fires next.
            """
            nonlocal rp, cancelled_in_q
            while True:
                while rp < len(ready):
                    ev = ready[rp]
                    if not ev.cancelled:
                        return ev.time
                    rp += 1
                    cancelled_in_q -= 1
                if not refill():
                    return None

        # --------------------------------------------------------------
        # Accounting
        # --------------------------------------------------------------
        def note_cancel() -> None:
            nonlocal pending, cancelled_in_q
            pending -= 1
            cancelled_in_q += 1
            if cancelled_in_q > COMPACT_MIN_CANCELLED and cancelled_in_q > pending:
                compact()

        def compact() -> None:
            """Filter cancelled events out of every live region.

            ``ready`` is filtered in place from the consumption pointer so
            an in-flight dispatch loop (compaction runs from callbacks via
            ``Event.cancel``) keeps iterating the same list object.
            """
            nonlocal wheel, cancelled_in_q
            ready[rp:] = [e for e in ready[rp:] if not e.cancelled]
            for idx, b in enumerate(buckets):
                if b:
                    nb = buckets[idx] = [e for e in b if not e.cancelled]
                    appends[idx] = nb.append
            overflow[:] = [e for e in overflow if not e.cancelled]
            wheel = sum(len(b) for b in buckets)
            cancelled_in_q = 0
            sim.compactions += 1

        def pending_count() -> int:
            return pending

        def queue_length() -> int:
            return (len(ready) - rp) + wheel + len(overflow)

        def high_water_mark() -> int:
            return hwm

        # Bind the closures as instance attributes: lookups hit the instance
        # dict directly (no descriptor binding), which is part of the win.
        self.schedule = schedule
        self.schedule_at = schedule_at
        self.run = run
        self.step = step
        self.stop = stop
        self.peek = peek
        self.pending_count = pending_count
        self.queue_length = queue_length
        self._note_cancel = note_cancel
        self._compact = compact
        self._high_water_mark = high_water_mark

    @property
    def queue_hwm(self) -> int:
        """Highest the *pending* count ever got (cancelled entries excluded)."""
        return self._high_water_mark()
