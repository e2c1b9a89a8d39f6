"""RSSI capture against pinned golden traces, and the CTI feature code.

The segment-based capture synthesizes a whole trace from the medium's
energy breakpoints.  Its traces are checked element for element (values,
dtype, start times) against ``tests/golden.json``, across seeds, capture
rates, an active fault plan and unquantized capture, together with a
fingerprint of the rest of the simulation, which capturing must not
perturb.

Also here: the vectorized CTI feature extraction against a straight-line
reference implementation (property-based), and the propagation gain cache
under mobility.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cti import RssiFeatures, _runs, extract_features
from repro.devices import ZigbeeDevice
from repro.phy.propagation import Position
from repro.phy.rssi import RssiTrace

from . import golden
from .helpers import deterministic_context


# ----------------------------------------------------------------------
# Captured traces == the pinned golden traces, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", golden.RSSI_SEEDS)
@pytest.mark.parametrize("rate_hz", golden.RSSI_RATES)
def test_segment_capture_bitwise_equals_legacy(seed, rate_hz):
    name = golden.rssi_case(seed, rate_hz)
    golden.check(name)
    assert golden.expected(name)["summary"]["captures"] == 5


def test_equivalence_holds_under_fault_plan():
    golden.check("rssi/fault-plan")


def test_equivalence_without_quantization():
    """Raw (float) traces must match exactly too, not just after rounding."""
    golden.check("rssi/unquantized")
    assert golden.expected("rssi/unquantized")["summary"]["dtype"] == "float64"


# ----------------------------------------------------------------------
# Vectorized CTI features vs the straight-line reference
# ----------------------------------------------------------------------
def _runs_reference(mask):
    """Original scalar-loop implementation of core.cti._runs."""
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(mask) - start))
    return runs


def _extract_features_reference(trace, noise_floor_dbm, busy_margin_db=8.0):
    """Original implementation of core.cti.extract_features."""
    samples = np.asarray(trace.samples_dbm, dtype=float)
    period = 1.0 / trace.rate_hz
    busy = samples >= noise_floor_dbm + busy_margin_db
    runs = _runs_reference(busy)
    avg_on_air = (sum(r[1] for r in runs) / len(runs)) * period if runs else 0.0
    if len(runs) >= 2:
        gaps = [
            runs[i + 1][0] - (runs[i][0] + runs[i][1]) for i in range(len(runs) - 1)
        ]
        min_interval = min(gaps) * period
    else:
        min_interval = trace.duration
    power_mw = np.asarray([10.0 ** (s / 10.0) for s in samples])
    mean_power = float(power_mw.mean())
    papr = float(power_mw.max() / mean_power) if mean_power > 0 else 1.0
    under_floor = float(np.mean(samples <= noise_floor_dbm + 1.0))
    return RssiFeatures(avg_on_air, min_interval, papr, under_floor)


@given(mask=st.lists(st.booleans(), min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_runs_matches_reference(mask):
    assert _runs(np.asarray(mask, dtype=bool)) == _runs_reference(mask)


@given(
    samples=st.lists(
        st.integers(min_value=-110, max_value=-20), min_size=1, max_size=300
    ),
    floor=st.integers(min_value=-105, max_value=-80),
)
@settings(max_examples=100, deadline=None)
def test_extract_features_matches_reference(samples, floor):
    trace = RssiTrace(0.0, 40e3, np.asarray(samples))
    got = extract_features(trace, float(floor))
    want = _extract_features_reference(trace, float(floor))
    assert got.avg_on_air_time == want.avg_on_air_time
    assert got.min_packet_interval == want.min_packet_interval
    assert got.peak_to_average_ratio == want.peak_to_average_ratio
    assert got.under_noise_floor == want.under_noise_floor


# ----------------------------------------------------------------------
# Propagation gain cache under mobility
# ----------------------------------------------------------------------
def test_gain_cache_hits_and_mobility_invalidation():
    ctx = deterministic_context(seed=2)
    a = ZigbeeDevice(ctx, "A", Position(0.0, 0.0))
    b = ZigbeeDevice(ctx, "B", Position(3.0, 0.0))
    channel = ctx.channel

    p1 = channel.mean_rx_power_dbm(0.0, "A", a.radio.position, "B", b.radio.position)
    misses = channel.gain_misses
    p2 = channel.mean_rx_power_dbm(0.0, "A", a.radio.position, "B", b.radio.position)
    assert p2 == p1
    assert channel.gain_misses == misses  # second query served from cache
    assert channel.gain_hits >= 1

    epoch = channel.position_epoch
    b.radio.move_to(Position(6.0, 0.0))
    assert channel.position_epoch == epoch + 1

    p3 = channel.mean_rx_power_dbm(0.0, "A", a.radio.position, "B", b.radio.position)
    # Deterministic context: the new value is exactly the log-distance model.
    assert p3 == pytest.approx(0.0 - channel.path_loss.loss_db(6.0))
    assert p3 < p1
    # 3 m -> 6 m at exponent 3.0 costs 10*3*log10(2) ~ 9 dB.
    assert p1 - p3 == pytest.approx(30.0 * math.log10(2.0))


def test_gain_cache_mid_run_mobility_matches_uncached_channel():
    """A mobile scenario's rx powers must equal a cache-cold recomputation."""

    def rx_powers(invalidate_between):
        ctx = deterministic_context(seed=4)
        tx = ZigbeeDevice(ctx, "T", Position(0.0, 0.0))
        rx = ZigbeeDevice(ctx, "R", Position(2.0, 0.0))
        powers = []
        for step in range(5):
            powers.append(
                ctx.channel.mean_rx_power_dbm(
                    0.0, "T", tx.radio.position, "R", rx.radio.position
                )
            )
            rx.radio.move_to(Position(2.0 + step, 0.0))
            if invalidate_between:
                # Extra invalidations must never change values, only timing.
                ctx.channel.invalidate_gains()
        return powers

    assert rx_powers(False) == rx_powers(True)
