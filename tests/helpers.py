"""Shared builders for protocol-level tests.

Most tests want a deterministic office: no shadowing/fading unless the test
is explicitly about randomness, a Wi-Fi pair 3 m apart, and ZigBee nodes at
controlled distances.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.context import SimContext, build_context
from repro.devices import WifiDevice, ZigbeeDevice
from repro.phy.propagation import FadingModel, PathLossModel, Position


def deterministic_context(seed: int = 1, **kwargs) -> SimContext:
    """A context with zero shadowing/fading so link budgets are exact."""
    kwargs.setdefault("fading", FadingModel(shadowing_sigma_db=0.0, fading_sigma_db=0.0))
    kwargs.setdefault("path_loss", PathLossModel(pl0_db=40.0, exponent=3.0))
    kwargs.setdefault("trace_kinds", set())
    return build_context(seed=seed, **kwargs)


def wifi_pair(ctx: SimContext, distance: float = 3.0, **kwargs):
    """A Wi-Fi sender/receiver pair; the receiver carries the CSI observer."""
    sender = WifiDevice(ctx, "E", Position(0.0, 0.0), **kwargs)
    receiver = WifiDevice(ctx, "F", Position(distance, 0.0), with_csi=True, **kwargs)
    return sender, receiver


def zigbee_pair(ctx: SimContext, sender_pos=None, receiver_pos=None, tx_power_dbm=0.0):
    sender = ZigbeeDevice(
        ctx, "ZS", sender_pos or Position(2.5, 1.0), tx_power_dbm=tx_power_dbm
    )
    receiver = ZigbeeDevice(ctx, "ZR", receiver_pos or Position(4.0, 1.0))
    return sender, receiver


def torn_copies(path: Path, n_random: int = 24):
    """Copies of a JSONL journal cut where a kill could tear an append.

    Cuts fall at seeded random byte offsets, at the empty and the whole
    file, and on both sides of every newline.  Yields ``(copy, whole)``:
    the cut copy and the records of the lines the cut left complete.
    """
    data = path.read_bytes()
    rng = random.Random(0)
    offsets = {0, len(data)} | {rng.randrange(len(data) + 1) for _ in range(n_random)}
    offsets |= {i + d for i, byte in enumerate(data) if byte == ord("\n") for d in (0, 1)}
    for offset in sorted(offsets):
        copy = path.with_name(f"{path.stem}-cut{offset}{path.suffix}")
        copy.write_bytes(data[:offset])
        whole = data[: data.rfind(b"\n", 0, offset) + 1]
        yield copy, [json.loads(line) for line in whole.splitlines()]
