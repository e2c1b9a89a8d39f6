"""The scheduler against pinned golden runs and a reference model.

Two layers of evidence:

* full compiled scenarios (5 seeds x 3 scenarios x 2 fault plans) checked
  against ``tests/golden.json`` on trace digest + event count + the whole
  summary dict;
* random schedule/cancel/run interleavings and targeted adversarial wheel
  cases (overflow jumps, zero-delay chains, peek-during-callback) compared
  firing order for firing order against :class:`ReferenceScheduler`, a
  heap of ``(time, seq)`` entries written here, independent of the
  calendar queue.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

from . import golden

SEEDS = [0, 1, 2, 3, 4]
SCENARIOS = [
    ("office", {}),
    ("grid", {"n_zigbee_links": 3, "n_wifi_pairs": 2}),
    ("random-uniform", {"n_zigbee_links": 4, "n_wifi_pairs": 2}),
]
FAULT_PLANS = ["inert", "lossy-control"]


@pytest.mark.parametrize("fault_plan", FAULT_PLANS)
@pytest.mark.parametrize("scenario,params", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_bitwise_equivalence(scenario, params, fault_plan, seed):
    name = golden.scenario_case(scenario, params, fault_plan, seed)
    golden.check(name)
    assert golden.expected(name)["events_processed"] > 0


# ----------------------------------------------------------------------
# The reference model: one heap entry per event, (time, seq) order
# ----------------------------------------------------------------------
class _RefEvent:
    def __init__(self, time, seq, callback, args, owner):
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.cancelled = self.fired = False
        self._owner = owner

    def cancel(self):
        if not (self.cancelled or self.fired):
            self.cancelled = True
            self._owner.pending -= 1


class ReferenceScheduler:
    """The engine's ordering contract, spelled out with ``heapq``."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending = 0
        self._queue = []
        self._seq = itertools.count()

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        event = _RefEvent(time, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, (time, event.seq, event))
        self.pending += 1
        return event

    def _head(self):
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][2] if self._queue else None

    def _fire(self):
        event = heapq.heappop(self._queue)[2]
        self.now = event.time
        event.fired = True
        self.pending -= 1
        self.events_processed += 1
        event.callback(*event.args)

    def peek(self):
        head = self._head()
        return head.time if head is not None else None

    def step(self):
        if self._head() is None:
            return False
        self._fire()
        return True

    def run(self, until=None):
        while (head := self._head()) is not None and (until is None or head.time <= until):
            self._fire()
        if until is not None and self.now < until:
            self.now = until

    def pending_count(self):
        return self.pending


# ----------------------------------------------------------------------
# Random interleavings of schedule / schedule_at / cancel / run
# ----------------------------------------------------------------------
_DELAYS = st.sampled_from(
    [0.0, 1e-7, 7e-6, 3.9e-5, 4e-5, 4.1e-5, 1e-3, 0.0102, 0.5, 3.0]
)  # straddles the calendar bucket width (40 us) and wheel span (10.24 ms)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("schedule_at"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run_until"), _DELAYS),
        st.tuples(st.just("step"), st.just(None)),
        st.tuples(st.just("peek"), st.just(None)),
    ),
    min_size=1,
    max_size=60,
)


def _apply_ops(sim, ops, chain_seed):
    """Drive one scheduler through an op script; return the observable record.

    Callbacks themselves re-schedule and cancel pseudo-randomly (seeded per
    run), so dispatch-time mutation paths — insort into the live batch,
    compaction mid-batch — are exercised too.
    """
    rng = random.Random(chain_seed)
    fired = []
    events = []
    record = []

    def cb(tag):
        fired.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.35 and len(events) < 4000:
            events.append(sim.schedule(rng.choice([0.0, 2e-6, 5e-5, 2e-3]), cb, -tag))
        if roll > 0.75 and events:
            events[rng.randrange(len(events))].cancel()

    tag = 0
    for op, arg in ops:
        if op == "schedule":
            events.append(sim.schedule(arg, cb, tag))
            tag += 1
        elif op == "schedule_at":
            events.append(sim.schedule_at(sim.now + arg, cb, tag))
            tag += 1
        elif op == "cancel":
            if events:
                events[arg % len(events)].cancel()
        elif op == "run_until":
            sim.run(until=sim.now + arg)
        elif op == "step":
            record.append(("step", sim.step()))
        elif op == "peek":
            record.append(("peek", sim.peek()))
    sim.run()
    record.append(("fired", tuple(fired)))
    record.append(("events_processed", sim.events_processed))
    record.append(("pending", sim.pending_count()))
    record.append(("now", sim.now))
    return record


@given(ops=_OPS, chain_seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=120, deadline=None)
def test_random_interleavings_fire_identically(ops, chain_seed):
    assert _apply_ops(Simulator(), ops, chain_seed) == _apply_ops(
        ReferenceScheduler(), ops, chain_seed
    )


# ----------------------------------------------------------------------
# Adversarial wheel cases
# ----------------------------------------------------------------------
def _both(fn):
    """Drive a narrow calendar wheel and the reference model alike."""
    ref_fired, cal_fired = [], []
    fn(ReferenceScheduler(), ref_fired)
    fn(Simulator(nbuckets=8, bucket_width=1e-4), cal_fired)
    assert cal_fired == ref_fired
    return ref_fired


def test_overflow_jump_cannot_skip_events():
    """Sparse far-future events force repeated empty-wheel overflow jumps."""

    def drive(sim, fired):
        for i, t in enumerate([5.0, 0.1, 2.5, 0.1, 97.0, 2.5000001]):
            sim.schedule(t, lambda i=i: fired.append((sim.now, i)))
        sim.run()

    fired = _both(drive)
    assert [i for _, i in fired] == [1, 3, 2, 5, 0, 4]


def test_callback_scheduling_before_wheel_head_fires_first():
    """A callback scheduling sooner than anything queued must fire next."""

    def drive(sim, fired):
        def wedge():
            fired.append((sim.now, "wedge"))
            sim.schedule(1e-6, lambda: fired.append((sim.now, "squeezed")))

        sim.schedule(0.05, wedge)
        sim.schedule(0.3, lambda: fired.append((sim.now, "tail")))
        sim.run()

    fired = _both(drive)
    assert [tag for _, tag in fired] == ["wedge", "squeezed", "tail"]


def test_peek_inside_callback_keeps_dispatch_consistent():
    """peek() prunes cancelled entries at the consumption frontier; doing it
    from inside a callback must not double-count or skip anything."""

    def drive(sim, fired):
        victims = []

        def prober():
            fired.append((sim.now, "prober"))
            for v in victims:
                v.cancel()
            fired.append((sim.now, ("peek", sim.peek())))

        sim.schedule(0.01, prober)
        victims.append(sim.schedule(0.0100001, lambda: fired.append("dead1")))
        victims.append(sim.schedule(0.0100002, lambda: fired.append("dead2")))
        sim.schedule(0.0100003, lambda: fired.append((sim.now, "alive")))
        sim.run()
        fired.append(("pending", sim.pending_count()))

    fired = _both(drive)
    assert ("pending", 0) in fired


def test_interrupted_batch_resumes_in_place():
    """until= landing inside a same-bucket batch must resume exactly there."""

    def drive(sim, fired):
        for i in range(10):
            sim.schedule(0.01 + i * 1e-6, lambda i=i: fired.append(i))
        sim.run(until=0.010004)  # splits the 10-event bucket
        fired.append(("now", sim.now))
        sim.run()

    fired = _both(drive)
    assert [x for x in fired if isinstance(x, int)] == list(range(10))
