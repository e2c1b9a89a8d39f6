"""Extension bench (Sec. VII-D) — ZigBee/Bluetooth coordination via AFH.

Not a paper figure (the paper only sketches this direction); we quantify
it: with AFH the BLE link's late-run success rate reaches ~1.0 and the hop
channel overlapping the ZigBee transmitter is excluded, while the ZigBee
link keeps its delivery ratio.
"""

import numpy as np

from repro.experiments import format_table
from repro.experiments.ble_extension import BleTrialConfig, run_ble_coexistence

from .conftest import scaled


def test_extension_ble(benchmark, emit):
    def run():
        duration = float(scaled(10, minimum=6))
        seeds = range(scaled(2, minimum=2))
        return {
            afh: [
                run_ble_coexistence(
                    BleTrialConfig(afh_enabled=afh, duration=duration), seed=s
                )
                for s in seeds
            ]
            for afh in (False, True)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for afh, runs in results.items():
        rows.append([
            "on" if afh else "off",
            float(np.mean([r.ble_success_rate for r in runs])),
            float(np.mean([r.ble_early_success_rate for r in runs])),
            float(np.mean([r.ble_late_success_rate for r in runs])),
            float(np.mean([len(r.excluded_channels) for r in runs])),
            float(np.mean([r.zigbee_delivery_ratio for r in runs])),
        ])
    emit(
        "extension_ble",
        format_table(
            ["AFH", "ble_success", "early", "late", "excluded_ch", "zigbee_dlv"],
            rows, title="Extension: ZigBee/BLE coordination via AFH (Sec. VII-D)",
            float_format="{:.3f}",
        ),
    )
    on = results[True]
    off = results[False]
    assert np.mean([r.ble_late_success_rate for r in on]) >= np.mean(
        [r.ble_late_success_rate for r in off]
    )
    assert all(r.excluded_channels for r in on)
    assert all(not r.excluded_channels for r in off)
    for runs in results.values():
        for r in runs:
            assert r.zigbee_delivery_ratio > 0.75
