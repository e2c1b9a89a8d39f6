"""The medium against pinned golden runs and a brute-force re-sum.

Three layers of evidence:

* full compiled scenarios (5 seeds x 3 scenarios x 2 fault plans, and a
  roaming corridor fast enough to force a handoff) checked against
  ``tests/golden.json`` on trace digest + event count + the whole summary
  dict;
* targeted adversarial cases for the medium's caches — mid-run mobility
  (position-epoch invalidation), BLE retunes while foreign transmissions
  are in flight (gather-profile + slot refresh), and a radio attached while
  a transmission is on the air (slot coverage fallback) — checked against
  their golden full-trace digests;
* a hypothesis property test driving random transmit/advance/move/retune
  interleavings and comparing the incremental interference accumulators
  against a brute-force re-sum oracle after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import build_context
from repro.phy.medium import Technology
from repro.phy.propagation import FadingModel, Position
from repro.phy.spectrum import ble_channel, wifi_channel, zigbee_channel

from . import golden
from .golden import attach_radio

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


@pytest.mark.parametrize("seed", golden.TRAJECTORY_SEEDS)
def test_trajectory_roaming_bitwise_equivalence(seed):
    name = golden.scenario_case("vehicular-corridor", golden.TRAJECTORY_PARAMS, None, seed)
    golden.check(name)
    # Motion actually forced a handoff.
    assert golden.expected(name)["summary"]["extra"]["roam_handoffs"] >= 1


def test_mid_run_mobility_equivalence():
    """Moving a radio mid-run invalidates the link matrix as pinned."""
    golden.check("medium/mid-run-mobility")


def test_ble_retune_during_foreign_transmission():
    """BLE hops while a wide Wi-Fi emission is in flight; captured powers and
    AFH statistics match the pinned per-pair recomputation exactly."""
    golden.check("medium/ble-retune")


def test_radio_attached_mid_transmission():
    """A radio attached while a transmission is on the air sees the pinned
    (lazily computed) powers."""
    golden.check("medium/late-attach")
    assert len(golden.expected("medium/late-attach")["summary"]) == 3


# ----------------------------------------------------------------------
# Incremental interference accumulators vs brute-force re-sum
# ----------------------------------------------------------------------
_BANDS = [
    ("zigbee", zigbee_channel(24), Technology.ZIGBEE),
    ("zigbee", zigbee_channel(26), Technology.ZIGBEE),
    ("wifi", wifi_channel(11), Technology.WIFI),
    ("wifi", wifi_channel(1), Technology.WIFI),
    ("ble", ble_channel(30), Technology.BLE),
]

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("tx"),
            st.integers(min_value=0, max_value=4),
            st.sampled_from([0.0, 10.0, 18.0]),
            st.sampled_from([0.8e-3, 2.5e-3, 7e-3]),
        ),
        st.tuples(st.just("advance"), st.sampled_from([0.4e-3, 1.1e-3, 6e-3]),
                  st.none(), st.none()),
        st.tuples(st.just("move"), st.integers(min_value=0, max_value=4),
                  st.sampled_from([0.5, 2.0, -1.5]), st.none()),
        st.tuples(st.just("move_many"), st.integers(min_value=0, max_value=4),
                  st.sampled_from([0.5, 2.0, -1.5]), st.none()),
        st.tuples(st.just("retune"), st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=len(_BANDS) - 1), st.none()),
    ),
    min_size=3,
    max_size=18,
)


def _oracle_interference(medium, radio, exclude=(), wanted=None):
    """The scalar fold, re-run from scratch against the live active set."""
    total = 0.0
    for tx in medium._active.values():
        if tx.source is radio or tx.tx_id in exclude:
            continue
        if wanted is not None and tx.technology not in wanted:
            continue
        total += medium.captured_power_mw(tx, radio)
    return total


@settings(max_examples=30, deadline=None)
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=9))
def test_accumulators_match_bruteforce_oracle(ops, seed):
    ctx = build_context(seed=seed, fading=FadingModel(2.0, 2.5), trace_kinds=set())
    medium = ctx.medium
    radios = [
        attach_radio(ctx, f"r{i}", Position(1.5 * i, 0.7 * (i % 3)), band, tech)
        for i, (_, band, tech) in enumerate(_BANDS)
    ]
    busy_until = {}
    for op, a, b, c in ops:
        if op == "tx":
            src = radios[a]
            if busy_until.get(a, -1.0) > ctx.sim.now:
                continue
            busy_until[a] = ctx.sim.now + c
            medium.transmit(src, c, b, src.band, src.technology)
        elif op == "advance":
            ctx.sim.run(until=ctx.sim.now + a)
        elif op == "move":
            radios[a].move_to(Position(radios[a].position.x + b,
                                       radios[a].position.y))
        elif op == "move_many":
            # Batched churn: one epoch advance for a platoon of movers.
            medium.move_many(
                (radio, Position(radio.position.x + b, radio.position.y + 0.3))
                for radio in radios[a:a + 3]
            )
        elif op == "retune":
            radios[a].retune(_BANDS[b][1])
        active_ids = list(medium._active)
        for radio in radios:
            expected = _oracle_interference(medium, radio)
            assert medium.interference_mw(radio) == expected
            wanted = frozenset({Technology.WIFI})
            assert medium.interference_mw(radio, technologies=wanted) == (
                _oracle_interference(medium, radio, wanted=wanted)
            )
            if active_ids:
                excl = (active_ids[0],)
                assert medium.interference_mw(radio, exclude=excl) == (
                    _oracle_interference(medium, radio, exclude=excl)
                )
    ctx.sim.run(until=ctx.sim.now + 20e-3)  # drain; end-edge accounting
    for radio in radios:
        assert medium.interference_mw(radio) == 0.0
