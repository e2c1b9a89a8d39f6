"""Scale ceiling: generator-built dense deployments, end to end.

The coexistence surveys BiCord targets study deployments far denser than the
paper's office — hundreds of Wi-Fi pairs contending with thousands of ZigBee
links.  This benchmark compiles such deployments from the ``grid`` generator
and drives a fixed event budget (or simulated horizon) through them,
recording realtime factor and engine event throughput into the benchmark
JSON (``BENCH_kernels.json`` when refreshed locally; see
docs/reproducing.md) so every future PR moves a tracked number.

One pedantic round per row: the run is expensive and the quantity of
interest (events/s at density) is stable enough that round-to-round variance
is dominated by machine noise anyway.  ``BICORD_BENCH_SCALE`` scales the
deployments for smoke runs.

At this density the per-event cost is dominated by medium and reception
work, not the scheduler; the scheduler-bound micro benchmark
(``test_kernel_performance.py::test_engine_event_throughput``) isolates the
calendar queue.  Tracking both pins down where the next ceiling is.
"""

from __future__ import annotations

import pytest

from repro.phy.propagation import Position
from repro.scenarios import compile_scenario, get_scenario
from repro.sim.process import Process

from .conftest import scaled

#: Dense deployment: thousands of ZigBee links, hundreds of Wi-Fi pairs.
N_ZIGBEE_LINKS = scaled(1000)
N_WIFI_PAIRS = scaled(200)
#: Event budget per measured run (per-event cost at this density is ~1 ms,
#: so the budget bounds a round to a few seconds).
MAX_EVENTS = scaled(3000)

#: Radio-density axis: total radio counts for the scaling curve.
#: The grid generator places 2 radios per ZigBee link and 2 per Wi-Fi pair;
#: the splits below keep 80% of the radios on ZigBee links at every density.
DENSITIES = [50, 200, 800]
MAX_EVENTS_DENSITY = scaled(1500)


def _scale_run(n_zigbee=N_ZIGBEE_LINKS, n_wifi=N_WIFI_PAIRS, max_events=MAX_EVENTS):
    spec = get_scenario("grid", n_zigbee_links=n_zigbee, n_wifi_pairs=n_wifi)
    compiled = compile_scenario(spec, seed=7, trace_kinds=set())
    result = compiled.run(max_events=max_events)
    return result.events_processed, compiled.sim.now


def _report(emit, variant, benchmark, events, sim_seconds,
            n_zigbee=N_ZIGBEE_LINKS, n_wifi=N_WIFI_PAIRS):
    wall = benchmark.stats.stats.mean
    emit(
        f"scale_ceiling_{variant}",
        f"scale ceiling ({variant}): {n_zigbee} zigbee links + "
        f"{n_wifi} wifi pairs, {events} events in {wall:.2f} s wall -> "
        f"{events / wall:.0f} events/s, realtime factor "
        f"{sim_seconds / wall:.5f}x ({sim_seconds * 1e3:.2f} ms simulated)",
    )


def test_scale_ceiling(benchmark, emit):
    events, sim_seconds = benchmark.pedantic(_scale_run, rounds=1, iterations=1)
    assert events == MAX_EVENTS  # the deployment saturates the budget
    _report(emit, "dense", benchmark, events, sim_seconds)


#: Mobility-churn axis: a moderate deployment driven for a fixed sim
#: horizon while a platoon of ZigBee senders is batch-moved 0, 1, or 10
#: times per simulated second.  Every rate processes the same event stream
#: (moves only invalidate lazily-rebuilt link state), so the events/s rows
#: are like-for-like and their gap prices the invalidation path.
CHURN_ZIGBEE = scaled(60)
CHURN_WIFI = scaled(8)
CHURN_HORIZON = 1.0
CHURN_RATES = [0, 1, 10]


def _churn_run(moves_per_s: int):
    spec = get_scenario("grid", n_zigbee_links=CHURN_ZIGBEE, n_wifi_pairs=CHURN_WIFI)
    compiled = compile_scenario(spec, seed=7, trace_kinds=set())
    movers = [
        link.sender.radio for link in compiled.zigbee_links.values()
    ][: max(4, CHURN_ZIGBEE // 4)]
    if moves_per_s:
        medium = compiled.ctx.medium

        def churn():
            step = 0
            while True:
                yield 1.0 / moves_per_s
                step += 1
                dx = 0.5 if step % 2 else -0.5
                medium.move_many(
                    (radio, Position(radio.position.x + dx, radio.position.y))
                    for radio in movers
                )

        Process(compiled.sim, churn(), name="churn")
    # A huge cap keeps run() on the capped path (no grace drain) while
    # the sim horizon, not the budget, ends the run.
    result = compiled.run(until=CHURN_HORIZON, max_events=10**9)
    return result.events_processed, compiled.sim.now


@pytest.mark.parametrize("moves", CHURN_RATES)
def test_mobility_churn(benchmark, emit, moves):
    """Events/s under batched topology churn (0/1/10 moves per sim second).

    The 0-row is the static control; the 10-row is the roaming regime.  The
    gap between the 0- and 10-rows prices the invalidation path (epoch
    bump + lazy row rebuilds).
    """
    events, sim_seconds = benchmark.pedantic(
        _churn_run, args=(moves,), rounds=1, iterations=1
    )
    assert events > 0
    _report(emit, f"mobility_churn_{moves}", benchmark, events,
            sim_seconds, n_zigbee=CHURN_ZIGBEE, n_wifi=CHURN_WIFI)


@pytest.mark.parametrize("radios", DENSITIES)
def test_medium_density(benchmark, emit, radios):
    """Events/s vs radio count (the scaling curve itself).

    The medium amortizes per-radio work into array sweeps and notification
    pruning, so the curve flattens with density; tracking all three rows
    keeps the shape visible rather than just the dense endpoint.
    """
    n_zigbee = radios * 2 // 5
    n_wifi = radios // 10
    events, sim_seconds = benchmark.pedantic(
        _scale_run,
        kwargs={"n_zigbee": n_zigbee, "n_wifi": n_wifi,
                "max_events": MAX_EVENTS_DENSITY},
        rounds=1,
        iterations=1,
    )
    assert events == MAX_EVENTS_DENSITY
    _report(emit, f"density_{radios}", benchmark, events, sim_seconds,
            n_zigbee=n_zigbee, n_wifi=n_wifi)
