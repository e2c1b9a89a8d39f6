#!/usr/bin/env python3
"""CTI detection demo: who is jamming my ZigBee channel?

Reproduces the Sec. VII-A pipeline end to end: a ZigBee collector records
40 kHz RSSI traces while different devices transmit (another ZigBee node, a
Bluetooth headset, Wi-Fi senders at several distances, a microwave oven),
extracts the four ZiSense features, trains the decision tree, and then
identifies individual Wi-Fi transmitters with Smoggy-Link fingerprints and
Manhattan-distance k-means.

Run:  python examples/interference_classification.py
"""

import numpy as np

from repro.core import CtiClassifier, InterfererClass, extract_features
from repro.experiments import DeviceIdTrialConfig, run_device_identification
from repro.experiments.cti_dataset import build_cti_dataset, collect_traces


def main() -> None:
    print("Collecting RSSI traces (40 kHz x 5 ms, per-source campaigns)...")
    dataset = build_cti_dataset(n_traces=60, seed=3, include_microwave=True)

    rng = np.random.default_rng(0)
    order = rng.permutation(len(dataset.features))
    split = len(order) // 2
    train = [dataset.features[i] for i in order[:split]]
    train_y = [dataset.labels[i] for i in order[:split]]
    test = [dataset.features[i] for i in order[split:]]
    test_y = [dataset.labels[i] for i in order[split:]]

    classifier = CtiClassifier().fit(train, train_y)
    print(f"interferer classes      : {[c.name for c in InterfererClass]}")
    print(f"multiclass accuracy     : {classifier.accuracy(test, test_y):.3f}")
    print(f"Wi-Fi-or-not accuracy   : "
          f"{classifier.wifi_detection_accuracy(test, test_y):.3f}  (paper: 0.9639)")

    # Peek at what the tree sees: one fresh trace per source.
    print("\nexample feature vectors (on-air ms, min-gap ms, PAPR, under-floor):")
    for source in ("zigbee", "bluetooth", "wifi", "microwave"):
        traces, floor = collect_traces(source, distance_m=2.0, n_traces=1, seed=99)
        f = extract_features(traces[0], floor)
        verdict = classifier.classify(f).name
        print(f"  {source:10} -> ({f.avg_on_air_time * 1e3:5.2f}, "
              f"{f.min_packet_interval * 1e3:5.2f}, {f.peak_to_average_ratio:8.1f}, "
              f"{f.under_noise_floor:.2f})  classified as {verdict}")

    print("\nIdentifying individual Wi-Fi transmitters (1 m / 3 m / 5 m)...")
    device_id = run_device_identification(DeviceIdTrialConfig(n_traces=60), seed=3)
    print(f"k-means identification accuracy: {device_id.accuracy:.3f}  (paper: 0.8976)")


if __name__ == "__main__":
    main()
