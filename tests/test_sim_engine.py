"""Tests for the discrete-event engine.

Every behavioral test runs twice via the parametrized ``sim`` fixture: on
the calendar wheel at its default geometry, and on a narrow 8-bucket wheel
whose 0.8 ms span pushes nearly every event through the overflow list.  The
wheel geometry must be invisible through the public API.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator

WHEELS = {
    "calendar": {},
    "narrow-wheel": {"nbuckets": 8, "bucket_width": 1e-4},
}


@pytest.fixture(params=list(WHEELS))
def sim(request):
    return Simulator(**WHEELS[request.param])


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo(sim):
    order = []
    for tag in ["first", "second", "third"]:
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock parked exactly at the horizon


def test_run_until_past_queue_parks_clock(sim):
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert not event.pending


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert event.cancelled


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_fire(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, order.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]


def test_zero_delay_event_fires_at_current_time(sim):
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_stop_halts_run(sim):
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]  # stop prevented event 2
    assert sim.peek() == 2.0  # event 2 still queued


def test_max_events_bound(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_peek_skips_cancelled(sim):
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0


def test_pending_count(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    events[0].cancel()
    assert sim.pending_count() == 4


def test_events_processed_counter(sim):
    for i in range(4):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_max_events_exhaustion_leaves_queue_and_resumes(sim):
    fired = []
    for i in range(6):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0  # clock rests at the last fired event
    assert sim.peek() == 5.0
    assert sim.pending_count() == 2
    sim.run()  # a second run drains the remainder
    assert fired == [0, 1, 2, 3, 4, 5]


def test_max_events_counts_only_fired_not_cancelled(sim):
    fired = []
    events = [sim.schedule(float(i + 1), fired.append, i) for i in range(6)]
    events[0].cancel()
    events[1].cancel()
    sim.run(max_events=2)
    # Cancelled events are skipped for free: the budget buys 2 real firings.
    assert fired == [2, 3]


def test_stop_mid_callback_does_not_advance_to_until(sim):
    fired = []

    def first():
        fired.append(sim.now)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2.0)
    sim.run(until=10.0)
    assert fired == [1.0]
    assert sim.now == 1.0  # stop() pins the clock; no park at `until`


def test_stopped_run_can_be_resumed(sim):
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    sim.run()  # a fresh run() clears the stop flag
    assert fired == [1, 2]


def test_peek_and_pending_count_agree_after_cancellations(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    for event in events[:3]:
        event.cancel()
    # peek() prunes cancelled heads; pending_count() filters the whole queue.
    assert sim.peek() == 4.0
    assert sim.pending_count() == 2
    events[3].cancel()
    events[4].cancel()
    assert sim.peek() is None
    assert sim.pending_count() == 0


def test_queue_hwm_and_wall_time_tracking(sim):
    for i in range(7):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.queue_hwm == 7
    assert sim.wall_time == 0.0
    sim.run()
    assert sim.queue_hwm == 7  # draining never raises the high-water mark
    assert sim.wall_time > 0.0


def test_reentrant_run_rejected(sim):
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# Wheel geometry
# ----------------------------------------------------------------------

def test_calendar_geometry_validation():
    with pytest.raises(ValueError):
        Simulator(nbuckets=100)  # not a power of two
    with pytest.raises(ValueError):
        Simulator(bucket_width=0.0)
    # Tiny wheels exercise the overflow/migration path but stay correct.
    sim = Simulator(nbuckets=4, bucket_width=1e-3)
    order = []
    for i in (9, 2, 7, 0, 4):
        sim.schedule(i * 1e-3, order.append, i)
    sim.run()
    assert order == [0, 2, 4, 7, 9]


def test_calendar_rejects_non_finite_times():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


# ----------------------------------------------------------------------
# Accounting fixes: pending high-water mark, O(1) pending, compaction
# ----------------------------------------------------------------------

def test_queue_hwm_excludes_cancelled_entries(sim):
    """queue_hwm tracks *pending* depth, not lazily-retained cancelled junk."""
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.queue_hwm == 10
    for event in events[:6]:
        event.cancel()
    # The queue still physically holds 10 entries, but pending fell to 4:
    # new schedules must not raise the mark until depth really exceeds 10.
    for i in range(5):
        sim.schedule(20.0 + i, lambda: None)
    assert sim.pending_count() == 9
    assert sim.queue_hwm == 10
    for i in range(2):
        sim.schedule(30.0 + i, lambda: None)
    assert sim.queue_hwm == 11  # 9 + 2 pending beats the old mark


def test_pending_count_is_live_through_run_and_cancel(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert sim.pending_count() == 6
    events[5].cancel()
    assert sim.pending_count() == 5
    sim.run(max_events=2)
    assert sim.pending_count() == 3
    sim.run()
    assert sim.pending_count() == 0


def test_compaction_bounds_queue_under_backoff_replanning(sim):
    """Sustained schedule+cancel churn must not grow the queue unboundedly.

    Models MAC backoff re-planning: every round cancels the previous
    completion event and schedules a new one.  With lazy cancellation only,
    the queue would hold every cancelled entry until it surfaced; the
    compaction threshold keeps physical length <= 2x pending (+ slack below
    the trigger floor).
    """
    from repro.sim.engine import COMPACT_MIN_CANCELLED

    keepers = [sim.schedule(1000.0 + i, lambda: None) for i in range(40)]
    replanned = sim.schedule(500.0, lambda: None)
    for round_ in range(2000):
        replanned.cancel()
        replanned = sim.schedule(500.0 + round_ * 1e-3, lambda: None)
        pending = sim.pending_count()
        length = sim.queue_length()
        assert length <= max(2 * pending, pending + COMPACT_MIN_CANCELLED + 1)
    assert sim.pending_count() == len(keepers) + 1
    assert sim.compactions > 0
    sim.run()
    assert sim.events_processed == len(keepers) + 1


def test_cancel_after_fire_is_noop_for_accounting(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    assert fired == [1]
    event.cancel()  # already fired: must not disturb the pending counter
    assert sim.pending_count() == 1
    sim.run()
    assert sim.events_processed == 2


def test_queue_length_agrees_with_pending_when_clean(sim):
    for i in range(9):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.queue_length() == 9
    assert sim.pending_count() == 9
    sim.run(max_events=4)
    assert sim.queue_length() == 5
    assert sim.pending_count() == 5
