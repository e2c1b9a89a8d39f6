"""Command-line interface: run BiCord scenarios without writing code.

Examples::

    python -m repro.cli coexist --scheme bicord --location A --bursts 30
    python -m repro.cli coexist --scheme ecc --seeds 4 --jobs 4
    python -m repro.cli signaling --location C --power -1 --packets 4
    python -m repro.cli learning --packets 10 --step 30
    python -m repro.cli cti
    python -m repro.cli priority --proportion 0.3 --scheme bicord
    python -m repro.cli energy
    python -m repro.cli ble --no-afh
    python -m repro.cli sweep --experiment coexistence \
        --param scheme=bicord,ecc --param location=A,B --seeds 2 --jobs 4
    python -m repro.cli sweep --list
    python -m repro.cli list
    python -m repro.cli scenario list
    python -m repro.cli scenario describe dense-office
    python -m repro.cli scenario run dense-office --seed 0
    python -m repro.cli scenario run grid --set n_zigbee_links=9 --seeds 3

Every subcommand dispatches through the experiment registry
(:mod:`repro.experiments.registry`) and prints a small table of the metrics
the paper reports for that scenario.  ``sweep`` fans a parameter grid out
across worker processes and memoizes finished trials on disk
(``~/.cache/bicord/sweeps`` or ``$BICORD_SWEEP_CACHE``); re-running the
same sweep re-executes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from . import telemetry
from .experiments import (
    CoexistenceConfig,
    SweepEngine,
    aggregate,
    default_cache_dir,
    experiment_names,
    format_table,
    get_experiment,
    run_experiment,
)
from .experiments.sweep import TrialRecord
from .log import configure as configure_logging


def _print(title: str, rows, headers=("metric", "value")) -> None:
    print(format_table(headers, rows, title=title, float_format="{:.4f}"))


# ----------------------------------------------------------------------
# Sweep plumbing shared by the subcommands
# ----------------------------------------------------------------------
def _make_engine(args: argparse.Namespace, progress=None) -> SweepEngine:
    return SweepEngine(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        cache=not getattr(args, "no_cache", False),
        progress=progress,
        telemetry=bool(getattr(args, "metrics_out", None)),
        quiet=getattr(args, "quiet", False),
    )


def _seed_range(args: argparse.Namespace) -> range:
    return range(args.seed, args.seed + args.seeds)


def _sweep_stats_line(run) -> str:
    return (
        f"{len(run.records)} trials: {run.executed} executed, "
        f"{run.cached_hits} cached, {run.elapsed:.2f} s wall (jobs={run.jobs})"
    )


def _emit_telemetry(
    args: argparse.Namespace,
    experiment: str,
    registry: Optional[telemetry.MetricsRegistry] = None,
    snapshot: Optional[Dict[str, Any]] = None,
    config: Any = None,
    seeds: Sequence[int] = (),
    calibration: Any = None,
    faults: Any = None,
    wall_time: float = 0.0,
    headline: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
    scenario: str = "",
    scenario_fingerprint: str = "",
) -> None:
    """Write the metrics file and print the report's telemetry section."""
    manifest = telemetry.build_manifest(
        experiment, config=config, seeds=seeds, calibration=calibration,
        faults=faults, wall_time_s=wall_time, metrics=headline, extra=extra,
        scenario=scenario, scenario_fingerprint=scenario_fingerprint,
    )
    lines = telemetry.export(
        args.metrics_out, registry=registry, manifest=manifest, snapshot=snapshot,
    )
    snap = snapshot if snapshot is not None else (
        registry.snapshot(spans=True) if registry is not None else {}
    )
    rows: List[List[Any]] = []
    for name, value in snap.get("counters", {}).items():
        rows.append([name, "counter", float(value)])
    for name, value in snap.get("gauges", {}).items():
        rows.append([name, "gauge", value])
    for name, data in snap.get("histograms", {}).items():
        rows.append([name, "histogram", float(data["count"])])
    for name, data in snap.get("spans", {}).items():
        rows.append([f"{name} (wall s)", "span", data["total_s"]])
    if rows:
        _print("telemetry", rows, headers=("metric", "kind", "value"))
    print(f"telemetry: manifest + {lines} metric line(s) -> {args.metrics_out}")


def _result_metrics(result: Any) -> Dict[str, float]:
    """Flat numeric view of any registered result (for sweep tables)."""
    metrics_fn = getattr(result, "metrics", None)
    if callable(metrics_fn):  # the ExperimentResult contract
        return dict(metrics_fn())
    if hasattr(result, "summary"):
        return dict(result.summary())
    metrics: Dict[str, float] = {}
    if hasattr(result, "pr"):  # signaling trials: surface precision/recall
        metrics["precision"] = result.pr.precision
        metrics["recall"] = result.pr.recall
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, (bool, int, float)):
            metrics[field.name] = float(value)
    return metrics


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _parse_scalar(text: str) -> Any:
    """CLI value -> int / float / bool / str (first parse that fits)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_param(option: str) -> Dict[str, List[Any]]:
    if "=" not in option:
        raise argparse.ArgumentTypeError(
            f"--param expects KEY=VALUE[,VALUE...], got {option!r}"
        )
    key, _, values = option.partition("=")
    return {key.strip(): [_parse_scalar(v) for v in values.split(",") if v != ""]}


def _expand_range_values(values: List[Any]) -> List[Any]:
    """Expand 'A:B' items into the half-open int range A..B-1.

    Campaign grids routinely span hundreds of values per axis (e.g.
    ``placement_seed=0:100``); listing them comma-separated is hopeless.
    Non-range items pass through untouched, so ``control:0.3``-style
    strings still parse as plain values.
    """
    out: List[Any] = []
    for value in values:
        if isinstance(value, str) and value.count(":") == 1:
            lo, _, hi = value.partition(":")
            try:
                out.extend(range(int(lo), int(hi)))
                continue
            except ValueError:
                pass
        out.append(value)
    return out


def _run_seed_averaged(
    args: argparse.Namespace,
    experiment: str,
    params: Dict[str, Any],
    title: str,
) -> int:
    """Shared multi-seed path: sweep-engine run, mean table, telemetry.

    Every single-trial subcommand funnels through here when ``--seeds N``
    exceeds 1, so seed averaging, ``--jobs`` parallelism, caching, and
    ``--metrics-out`` behave identically across the whole CLI.
    """
    run = _make_engine(args).run_trials(
        experiment, [params], seeds=_seed_range(args)
    )
    per_trial = [_result_metrics(result) for result in run.results]
    headline = {
        name: _mean([m.get(name, 0.0) for m in per_trial])
        for name in per_trial[0]
    }
    _print(
        f"{title} (mean over {args.seeds} seeds)",
        [[name, value] for name, value in headline.items()],
    )
    print(_sweep_stats_line(run))
    if args.metrics_out:
        _emit_telemetry(
            args, experiment, snapshot=run.telemetry, config=params,
            seeds=_seed_range(args), wall_time=run.elapsed, headline=headline,
        )
    return 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _load_fault_plan(path: str):
    """Load a FaultPlan from a JSON file of field overrides."""
    from .faults import FaultPlan
    from .serialization import loads

    with open(path, "r", encoding="utf-8") as handle:
        return loads(FaultPlan, handle.read())


def _scenario_table() -> str:
    from .scenarios import get_scenario_entry, scenario_names

    rows = []
    for name in scenario_names():
        entry = get_scenario_entry(name)
        rows.append([name, entry.description, ", ".join(entry.param_names)])
    return format_table(
        ["scenario", "description", "parameters"], rows,
        title="registered scenarios",
    )


def _run_scenario(
    args: argparse.Namespace,
    name: str,
    params: Dict[str, Any],
    duration: Optional[float] = None,
    max_events: Optional[int] = None,
    fault_plan: Optional[str] = None,
) -> int:
    """Run one library scenario (single seed or seed-averaged via sweep)."""
    from .experiments import ScenarioTrialConfig

    try:
        cfg = ScenarioTrialConfig(
            scenario=name, params=params, duration=duration,
            max_events=max_events, fault_plan=fault_plan,
        )
    except (KeyError, TypeError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    if getattr(args, "seeds", 1) > 1:
        from .serialization import to_dict

        run = _make_engine(args).run_trials(
            "scenario", [to_dict(cfg)], seeds=_seed_range(args)
        )
        results = run.results
        headline = {
            key: _mean([r.summary()[key] for r in results])
            for key in results[0].summary()
        }
        _print(
            f"scenario: {cfg.scenario} (mean over {args.seeds} seeds)",
            [[key, value] for key, value in headline.items()],
        )
        print(_sweep_stats_line(run))
        if args.metrics_out:
            _emit_telemetry(
                args, "scenario", snapshot=run.telemetry, config=cfg,
                seeds=_seed_range(args), wall_time=run.elapsed, headline=headline,
                scenario=cfg.scenario, scenario_fingerprint=cfg.spec_fingerprint,
            )
        return 0
    registry = telemetry.MetricsRegistry() if args.metrics_out else None
    wall_start = time.perf_counter()
    result = run_experiment("scenario", config=cfg, seed=args.seed, telemetry=registry)
    wall_time = time.perf_counter() - wall_start
    _print(
        f"scenario: {result.scenario} ({result.scheme}, seed {args.seed})",
        [[key, value] for key, value in result.summary().items()],
    )
    link_rows = [
        [link.name, float(link.offered), float(link.delivered),
         link.delivery_ratio, link.mean_delay * 1e3, float(link.control_packets)]
        for link in result.links.values()
    ]
    if link_rows:
        _print(
            "zigbee links", link_rows,
            headers=("link", "offered", "delivered", "ratio",
                     "mean delay (ms)", "ctrl pkts"),
        )
    wifi_rows = [
        [link.name, float(link.sent), float(link.delivered), link.prr]
        for link in result.wifi.values()
    ]
    if wifi_rows:
        _print("wifi links", wifi_rows, headers=("link", "sent", "delivered", "prr"))
    if "roam_handoffs" in result.extra:
        _print(
            "roaming",
            [[result.extra.get("roam_handoffs", 0.0),
              result.extra.get("roam_pingpongs", 0.0),
              result.extra.get("roam_scans", 0.0),
              result.extra.get("roam_gap_ms", 0.0)]],
            headers=("handoffs", "pingpongs", "scans", "gap (ms)"),
        )
    print(f"spec fingerprint: {result.spec_fingerprint}")
    if registry is not None:
        _emit_telemetry(
            args, "scenario", registry=registry, config=cfg,
            seeds=(args.seed,), wall_time=wall_time, headline=result.summary(),
            scenario=result.scenario, scenario_fingerprint=result.spec_fingerprint,
        )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(_scenario_table())
        return 0
    if not args.name:
        print("error: scenario name required for 'describe' and 'run'",
              file=sys.stderr)
        return 2
    params: Dict[str, Any] = {}
    for option in args.set or []:
        if "=" not in option:
            print(f"error: --set expects KEY=VALUE, got {option!r}", file=sys.stderr)
            return 2
        key, _, value = option.partition("=")
        params[key.strip()] = _parse_scalar(value)
    if args.action == "describe":
        from .experiments import ScenarioTrialConfig
        from .serialization import dumps

        try:
            cfg = ScenarioTrialConfig(
                scenario=args.name, params=params,
                duration=args.duration, fault_plan=args.fault_plan,
            )
        except (KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        spec = cfg.resolve_spec()
        print(dumps(spec))
        print(f"fingerprint: {spec.fingerprint()}")
        return 0
    return _run_scenario(
        args, args.name, params, duration=args.duration,
        max_events=args.max_events, fault_plan=args.fault_plan,
    )


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in experiment_names():
        spec = get_experiment(name)
        rows.append([name, spec.description, ", ".join(spec.param_names())])
    print(format_table(
        ["experiment", "description", "parameters"], rows,
        title="registered experiments",
    ))
    print()
    print(_scenario_table())
    return 0


def cmd_coexist(args: argparse.Namespace) -> int:
    if args.scenario:
        from .scenarios import get_scenario_entry

        try:
            entry = get_scenario_entry(args.scenario)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.faults:
            print("error: --faults (a FaultPlan file) does not combine with "
                  "--scenario; use `repro scenario run --fault-plan NAME`",
                  file=sys.stderr)
            return 2
        # Forward only the coexist knobs the scenario factory understands.
        params = {
            key: value
            for key, value in (
                ("scheme", args.scheme),
                ("location", args.location),
                ("mobility", args.mobility),
            )
            if key in entry.param_names
        }
        return _run_scenario(args, entry.name, params)
    if args.config:
        from .serialization import loads

        with open(args.config, "r", encoding="utf-8") as handle:
            config = loads(CoexistenceConfig, handle.read())
        if args.faults:
            config = dataclasses.replace(config, faults=_load_fault_plan(args.faults))
    else:
        config = CoexistenceConfig(
            scheme=args.scheme,
            location=args.location,
            seed=args.seed,
            burst_packets=args.packets,
            payload_bytes=args.payload,
            burst_interval=args.interval,
            poisson=not args.periodic,
            n_bursts=args.bursts,
            ecc_whitespace=args.ecc_whitespace * 1e-3,
            mobility=args.mobility,
            faults=_load_fault_plan(args.faults) if args.faults else None,
        )
    if args.dump_config:
        from .serialization import dumps

        print(dumps(config))
        return 0
    if args.seeds > 1:
        from .serialization import to_dict

        params = to_dict(config)
        params.pop("seed")
        calibration = config.calibration
        params.pop("calibration")
        run = _make_engine(args).run_trials(
            "coexistence", [params], seeds=_seed_range(args), calibration=calibration,
        )
        agg = aggregate(run.results)
        _print(
            f"coexistence: {config.scheme} at location {config.location} "
            f"(mean over {args.seeds} seeds)",
            [[key, value] for key, value in agg.items()],
        )
        print(_sweep_stats_line(run))
        if args.metrics_out:
            _emit_telemetry(
                args, "coexistence", snapshot=run.telemetry, config=config,
                seeds=_seed_range(args), calibration=calibration,
                faults=config.faults, wall_time=run.elapsed, headline=agg,
            )
        return 0
    registry = telemetry.MetricsRegistry() if args.metrics_out else None
    wall_start = time.perf_counter()
    result = run_experiment("coexistence", config=config, telemetry=registry)
    wall_time = time.perf_counter() - wall_start
    _print(
        f"coexistence: {config.scheme} at location {config.location}",
        [
            ["channel utilization", result.channel_utilization],
            ["zigbee utilization", result.zigbee_utilization],
            ["wifi utilization", result.wifi_utilization],
            ["mean zigbee delay (ms)", result.mean_delay * 1e3],
            ["p95 zigbee delay (ms)", result.p95_delay * 1e3],
            ["zigbee throughput (kbps)", result.zigbee_throughput_bps / 1e3],
            ["delivery ratio", result.delivery_ratio],
            ["control packets", float(result.control_packets)],
            ["white spaces issued", float(result.whitespaces_issued)],
        ],
    )
    injected = {k: v for k, v in result.extra.items() if k.startswith("fault_")}
    if injected:
        print("injected faults: " + ", ".join(
            f"{name[len('fault_'):]}={int(count)}" for name, count in sorted(injected.items())
        ))
    if registry is not None:
        _emit_telemetry(
            args, "coexistence", registry=registry, config=config,
            seeds=(config.seed,), calibration=config.calibration,
            faults=config.faults, wall_time=wall_time,
            headline=result.summary(),
        )
    return 0


def cmd_signaling(args: argparse.Namespace) -> int:
    params = dict(
        location=args.location,
        power_dbm=args.power,
        n_control_packets=args.packets,
        n_salvos=args.salvos,
    )
    if args.seeds > 1:
        run = _make_engine(args).run_trials(
            "signaling", [params], seeds=_seed_range(args)
        )
        trials = run.results
        headline = {
            "precision": _mean([t.pr.precision for t in trials]),
            "recall": _mean([t.pr.recall for t in trials]),
            "false_positives": _mean([float(t.pr.false_positives) for t in trials]),
            "wifi_prr": _mean([t.wifi_prr for t in trials]),
        }
        _print(
            f"signaling: location {args.location}, {args.power:+.0f} dBm, "
            f"{args.packets} control packets (mean over {args.seeds} seeds)",
            [
                ["precision", headline["precision"]],
                ["recall", headline["recall"]],
                ["false positives", headline["false_positives"]],
                ["wifi PRR during trial", headline["wifi_prr"]],
            ],
        )
        print(_sweep_stats_line(run))
        if args.metrics_out:
            _emit_telemetry(
                args, "signaling", snapshot=run.telemetry, config=params,
                seeds=_seed_range(args), wall_time=run.elapsed, headline=headline,
            )
        return 0
    registry = telemetry.MetricsRegistry() if args.metrics_out else None
    wall_start = time.perf_counter()
    result = run_experiment("signaling", seed=args.seed, telemetry=registry, **params)
    wall_time = time.perf_counter() - wall_start
    _print(
        f"signaling: location {args.location}, {args.power:+.0f} dBm, "
        f"{args.packets} control packets",
        [
            ["precision", result.pr.precision],
            ["recall", result.pr.recall],
            ["true positives", float(result.pr.true_positives)],
            ["false positives", float(result.pr.false_positives)],
            ["wifi PRR during trial", result.wifi_prr],
        ],
    )
    if registry is not None:
        _emit_telemetry(
            args, "signaling", registry=registry, config=params,
            seeds=(args.seed,), wall_time=wall_time,
            headline={
                "precision": result.pr.precision,
                "recall": result.pr.recall,
                "false_positives": float(result.pr.false_positives),
                "wifi_prr": result.wifi_prr,
            },
        )
    return 0


def cmd_learning(args: argparse.Namespace) -> int:
    params = dict(
        n_packets=args.packets,
        step=args.step * 1e-3,
        location=args.location,
        n_bursts=args.bursts,
    )
    if args.seeds > 1:
        return _run_seed_averaged(
            args, "learning", params,
            f"white-space learning: {args.packets}-packet bursts, "
            f"{args.step:.0f} ms step",
        )
    registry = telemetry.MetricsRegistry() if args.metrics_out else None
    wall_start = time.perf_counter()
    result = run_experiment("learning", seed=args.seed, telemetry=registry, **params)
    wall_time = time.perf_counter() - wall_start
    _print(
        f"white-space learning: {args.packets}-packet bursts, {args.step:.0f} ms step",
        [
            ["converged", float(result.converged)],
            ["iterations", float(result.iterations)],
            ["final white space (ms)", result.final_whitespace * 1e3],
            ["burst airtime (ms)", result.burst_airtime * 1e3],
        ],
    )
    trajectory = ", ".join(f"{g * 1e3:.0f}" for g in result.trajectory[:20])
    print(f"trajectory (ms): {trajectory}")
    if registry is not None:
        _emit_telemetry(
            args, "learning", registry=registry, config=params,
            seeds=(args.seed,), wall_time=wall_time,
            headline=_result_metrics(result),
        )
    return 0


def cmd_cti(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        engine = _make_engine(args)
        seeds = _seed_range(args)
        cti_run = engine.run_trials("cti", [{"n_traces": args.traces}], seeds=seeds)
        dev_run = engine.run_trials(
            "device-id", [{"n_traces": args.traces}], seeds=seeds
        )
        _print(
            f"CTI detection (mean over {args.seeds} seeds)",
            [
                ["wifi detection accuracy (paper 0.9639)",
                 _mean([r.wifi_detection_accuracy for r in cti_run.results])],
                ["multiclass accuracy",
                 _mean([r.multiclass_accuracy for r in cti_run.results])],
                ["device identification (paper 0.8976)",
                 _mean([r.accuracy for r in dev_run.results])],
            ],
        )
        print(_sweep_stats_line(cti_run))
        print(_sweep_stats_line(dev_run))
        return 0
    cti = run_experiment("cti", seed=args.seed, n_traces=args.traces)
    device = run_experiment("device-id", seed=args.seed, n_traces=args.traces)
    _print(
        "CTI detection",
        [
            ["wifi detection accuracy (paper 0.9639)", cti.wifi_detection_accuracy],
            ["multiclass accuracy", cti.multiclass_accuracy],
            ["device identification (paper 0.8976)", device.accuracy],
        ],
    )
    return 0


def cmd_priority(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        return _run_seed_averaged(
            args, "priority",
            {"scheme": args.scheme, "high_proportion": args.proportion,
             "total_duration": args.duration},
            f"priority traffic: {args.scheme}, "
            f"high-priority share {args.proportion}",
        )
    result = run_experiment(
        "priority",
        seed=args.seed,
        scheme=args.scheme,
        high_proportion=args.proportion,
        total_duration=args.duration,
    )
    _print(
        f"priority traffic: {args.scheme}, high-priority share {args.proportion}",
        [
            ["channel utilization", result.utilization],
            ["zigbee utilization", result.zigbee_utilization],
            ["low-priority wifi delay (ms)", result.low_priority_wifi_delay * 1e3],
            ["high-priority wifi delay (ms)", result.high_priority_wifi_delay * 1e3],
            ["zigbee mean delay (ms)", result.zigbee_mean_delay * 1e3],
        ],
    )
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        return _run_seed_averaged(
            args, "energy", {"n_bursts": args.bursts},
            "energy overhead (paper: 10-21%)",
        )
    result = run_experiment("energy", seed=args.seed, n_bursts=args.bursts)
    _print(
        "energy overhead (paper: 10-21%)",
        [
            ["bicord under wifi (mJ)", result.bicord_mj],
            ["clear channel (mJ)", result.clear_channel_mj],
            ["overhead (%)", result.overhead_fraction * 100.0],
            ["control packets", float(result.control_packets)],
        ],
    )
    return 0


def cmd_ble(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        return _run_seed_averaged(
            args, "ble",
            {"afh_enabled": args.afh, "duration": args.duration},
            f"ZigBee/BLE coexistence (AFH {'on' if args.afh else 'off'})",
        )
    result = run_experiment(
        "ble", seed=args.seed, afh_enabled=args.afh, duration=args.duration
    )
    _print(
        f"ZigBee/BLE coexistence (AFH {'on' if args.afh else 'off'})",
        [
            ["ble event success rate", result.ble_success_rate],
            ["ble late-window success", result.ble_late_success_rate],
            ["excluded channels", float(len(result.excluded_channels))],
            ["zigbee delivery ratio", result.zigbee_delivery_ratio],
            ["zigbee mean delay (ms)", result.zigbee_mean_delay * 1e3],
        ],
    )
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    from .experiments import robustness_curve

    rates = [float(r) for r in args.rates.split(",") if r != ""]
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            print(f"error: rates must be in [0, 1], got {rate}", file=sys.stderr)
            return 2
    base = {
        "scheme": args.scheme,
        "location": args.location,
        "n_bursts": args.bursts,
    }
    if args.scenario:
        base["scenario"] = args.scenario
    points, run = robustness_curve(
        dimension=args.dimension,
        rates=rates,
        seeds=tuple(_seed_range(args)),
        base=base,
        engine=_make_engine(args),
        return_run=True,
    )
    rows = [
        [
            point["rate"], point["prr_mean"], point["prr_min"],
            point["mean_delay"] * 1e3, point["p95_delay"] * 1e3,
            point["throughput_bps"] / 1e3,
        ]
        for point in points
    ]
    workload = args.scenario if args.scenario else args.scheme
    _print(
        f"robustness: {workload} vs {args.dimension} faults "
        f"({args.seeds} seed(s) per rate)",
        rows,
        headers=("rate", "prr mean", "prr min", "mean delay (ms)",
                 "p95 delay (ms)", "throughput (kbps)"),
    )
    print(_sweep_stats_line(run))
    if args.metrics_out:
        _emit_telemetry(
            args, "robustness", snapshot=run.telemetry,
            config={"dimension": args.dimension, "rates": rates, **base},
            seeds=_seed_range(args), wall_time=run.elapsed,
            headline={f"prr@{p['rate']:g}": p["prr_mean"] for p in points},
            extra={"dimension": args.dimension, "rates": rates},
        )
    return 0


def cmd_roaming(args: argparse.Namespace) -> int:
    from .experiments import roaming_curve

    speeds = [float(s) for s in args.speeds.split(",") if s != ""]
    n_aps = [int(n) for n in args.aps.split(",") if n != ""]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not speeds or not n_aps or not schemes:
        print("error: --speeds, --aps and --schemes must be non-empty",
              file=sys.stderr)
        return 2
    base: Dict[str, Any] = {"scenario": args.scenario, "policy": args.policy}
    if args.duration is not None:
        base["duration"] = args.duration
    points, run = roaming_curve(
        speeds=speeds,
        n_aps=n_aps,
        schemes=schemes,
        seeds=tuple(_seed_range(args)),
        base=base,
        engine=_make_engine(args),
        return_run=True,
    )
    rows = [
        [
            point["speed_mps"], float(point["n_aps"]), point["scheme"],
            point["handoffs_mean"], point["pingpongs_mean"],
            point["gap_ms_mean"], point["wifi_prr_mean"], point["prr_mean"],
            point["mean_delay"] * 1e3,
        ]
        for point in points
    ]
    _print(
        f"roaming: {args.scenario} under {args.policy!r} "
        f"({args.seeds} seed(s) per point)",
        rows,
        headers=("speed (m/s)", "APs", "scheme", "handoffs", "pingpongs",
                 "gap (ms)", "wifi prr", "zigbee prr", "mean delay (ms)"),
    )
    print(_sweep_stats_line(run))
    if args.metrics_out:
        _emit_telemetry(
            args, "roaming", snapshot=run.telemetry,
            config={"speeds": speeds, "n_aps": n_aps, "schemes": schemes, **base},
            seeds=_seed_range(args), wall_time=run.elapsed,
            headline={
                f"handoffs@{p['speed_mps']:g}x{p['n_aps']}/{p['scheme']}":
                    p["handoffs_mean"]
                for p in points
            },
            extra={"scenario": args.scenario, "policy": args.policy},
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        rows = []
        for name in experiment_names():
            spec = get_experiment(name)
            rows.append([name, spec.description,
                         ", ".join(spec.param_names())])
        print(format_table(["experiment", "description", "parameters"], rows,
                           title="registered experiments"))
        return 0
    if args.clear_cache:
        engine = _make_engine(args)
        removed = engine.clear_cache()
        print(f"cleared {removed} cache entries from {engine.cache_dir}")
        if not args.experiment:
            return 0
    if not args.experiment:
        print("error: --experiment is required (or use --list / --clear-cache)",
              file=sys.stderr)
        return 2
    try:
        spec = get_experiment(args.experiment)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    grid: Dict[str, List[Any]] = {}
    try:
        for option in args.param or []:
            grid.update(_parse_param(option))
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    unknown = sorted(set(grid) - set(spec.param_names()))
    if unknown:
        print(
            f"error: unknown parameter(s) {unknown} for experiment "
            f"{spec.name!r}; valid: {sorted(spec.param_names())}",
            file=sys.stderr,
        )
        return 2

    def progress(record: TrialRecord, done: int, total: int) -> None:
        if args.quiet:
            return
        state = "cached " if record.cached else f"{record.elapsed:6.2f}s"
        params = " ".join(
            f"{k}={v}" for k, v in record.params.items() if k in grid
        )
        print(f"  [{done}/{total}] {state}  seed={record.seed} {params}".rstrip())

    from .experiments import SweepSpec

    try:
        engine = _make_engine(args, progress=progress)
        run = engine.run(SweepSpec(
            experiment=spec.name,
            grid=grid,
            seeds=tuple(_seed_range(args)),
        ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # One row per grid combination, metrics averaged over seeds.
    varying = [name for name in grid if len(grid[name]) > 1]
    combos: Dict[tuple, List[TrialRecord]] = {}
    for record in run.records:
        key = tuple(record.params[name] for name in varying)
        combos.setdefault(key, []).append(record)
    metric_names: List[str] = []
    for records in combos.values():
        for name in _result_metrics(records[0].result):
            if name not in metric_names and name not in varying:
                metric_names.append(name)
    rows = []
    for key, records in combos.items():
        per_trial = [_result_metrics(r.result) for r in records]
        rows.append(list(key) + [
            _mean([m.get(name, 0.0) for m in per_trial]) for name in metric_names
        ])
    headers = varying + metric_names
    print(format_table(
        headers, rows,
        title=f"sweep: {spec.name} ({args.seeds} seed(s) per combination)",
        float_format="{:.4f}",
    ))
    print(_sweep_stats_line(run))
    if engine.cache_enabled:
        print(f"cache: {engine.cache_dir}")
    if args.metrics_out:
        _emit_telemetry(
            args, spec.name, snapshot=run.telemetry,
            config={"grid": grid, "base": {}},
            seeds=_seed_range(args), wall_time=run.elapsed,
        )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .experiments.campaign import (
        CampaignError,
        CampaignRunner,
        CampaignSpec,
        comparison_table,
    )

    runner = CampaignRunner(
        args.dir,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        quiet=args.quiet,
    )

    if args.action == "status":
        try:
            status = runner.status()
            still_cached, journaled = runner.verify_cache()
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = [
            ["trials", float(status.total)],
            ["done", float(status.done)],
            ["remaining", float(status.remaining)],
            ["cache hits (journaled)", float(status.cached_hits)],
            ["still cached", float(still_cached)],
            ["shards", float(status.shards)],
        ]
        _print(f"campaign: {status.name} [{status.fingerprint[:12]}]", rows)
        shard_rows = [
            [f"shard {shard}", float(done)]
            for shard, done in sorted(status.per_shard.items())
        ]
        _print("per-shard progress", shard_rows, headers=("shard", "done"))
        if journaled and still_cached < journaled:
            print(
                f"warning: {journaled - still_cached} journaled trial(s) no "
                "longer cached; a resume would recompute them"
            )
        return 0

    if args.action == "report":
        try:
            summaries = runner.report(batch=args.batch)
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spec = runner.load_spec()
        kind = "batch means" if args.batch else "per-trial"
        print(f"campaign report: {spec.name} "
              f"(by {spec.compare_by}, {kind}, mean +- 95% CI)")
        print(comparison_table(summaries))
        return 0

    # gen: build the spec from a scenario generator, then run it
    if args.action == "gen":
        from .experiments.campaign import campaign_from_generator

        if not args.generator:
            print("error: campaign gen requires --generator NAME",
                  file=sys.stderr)
            return 2
        fixed: Dict[str, Any] = {}
        for option in args.gen_param or []:
            if "=" not in option:
                print(f"error: --gen-param expects KEY=VALUE, got {option!r}",
                      file=sys.stderr)
                return 2
            key, _, value = option.partition("=")
            fixed[key.strip()] = _parse_scalar(value)
        base: Dict[str, Any] = {}
        for option in args.base or []:
            if "=" not in option:
                print(f"error: --base expects KEY=VALUE, got {option!r}",
                      file=sys.stderr)
                return 2
            key, _, value = option.partition("=")
            base[key.strip()] = _parse_scalar(value)
        try:
            spec = campaign_from_generator(
                name=args.name,
                generator=args.generator,
                count=args.count,
                axis=args.axis,
                start=args.start,
                params=fixed,
                base=base,
                seeds=tuple(_seed_range(args)),
                shards=args.shards,
                compare_by=args.compare_by,
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        return _run_campaign(args, runner, spec)

    # run / resume
    spec = None
    if args.action == "run":
        grid: Dict[str, List[Any]] = {}
        scenario_grid: Dict[str, List[Any]] = {}
        base: Dict[str, Any] = {}
        try:
            for option in args.param or []:
                for key, values in _parse_param(option).items():
                    grid[key] = _expand_range_values(values)
            for option in args.scenario_param or []:
                for key, values in _parse_param(option).items():
                    scenario_grid[key] = _expand_range_values(values)
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for option in args.base or []:
            if "=" not in option:
                print(f"error: --base expects KEY=VALUE, got {option!r}",
                      file=sys.stderr)
                return 2
            key, _, value = option.partition("=")
            base[key.strip()] = _parse_scalar(value)
        try:
            spec = CampaignSpec(
                name=args.name,
                experiment=args.experiment,
                grid=grid,
                base=base,
                scenario_grid=scenario_grid,
                seeds=tuple(_seed_range(args)),
                shards=args.shards,
                compare_by=args.compare_by,
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2

    return _run_campaign(args, runner, spec)


def _run_campaign(args: argparse.Namespace, runner, spec) -> int:
    """Execute (or resume) a campaign spec and print the outcome."""
    from .experiments.campaign import CampaignError, comparison_table

    def progress(trial, record, n_done, n_total):
        if args.quiet:
            return
        state = "cached " if record.cached else f"{record.elapsed:6.2f}s"
        print(f"  [{n_done}/{n_total}] {state}  shard={trial.shard} "
              f"seed={trial.seed} #{trial.index}")

    try:
        run = runner.run(spec, max_trials=args.max_trials, progress=progress)
    except KeyboardInterrupt:
        print(f"\ninterrupted — resume with: repro campaign resume "
              f"--dir {args.dir}", file=sys.stderr)
        return 3
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"campaign {run.spec.name}: {run.completed}/{run.total} trials done "
        f"({run.executed} executed, {run.cached_hits} cached this run, "
        f"{run.elapsed:.2f} s wall, jobs={args.jobs})"
    )
    if run.complete:
        print(f"manifest: {runner.manifest_path}")
        print(f"campaign report (by {run.spec.compare_by}, mean +- 95% CI)")
        print(comparison_table(run.summaries or {}))
    else:
        print(f"resume with: repro campaign resume --dir {args.dir}")
    if args.metrics_out and run.telemetry is not None:
        _emit_telemetry(
            args, run.spec.experiment, snapshot=run.telemetry,
            seeds=tuple(run.spec.seeds), wall_time=run.elapsed,
            extra={"campaign": run.spec.name},
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the coordination job server until SIGTERM drains it.

    All runtime output goes through ``repro.log`` (the ``repro.server``
    loggers), so ``--quiet``/-v behave exactly like every other
    subcommand — the only bare print is the one-line startup banner
    below, which doubles as the parseable "where do I connect" answer.
    """
    import asyncio

    from .server import JobServer, ServerConfig

    config = ServerConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        snapshot_interval=args.snapshot_interval,
        drain_grace=args.drain_grace,
    )
    server = JobServer(config)

    async def run() -> None:
        await server.start()
        if not args.quiet:
            print(
                f"repro server: {config.host}:{server.port} "
                f"(state {config.state_dir}, workers {config.workers}, "
                f"queue depth {config.queue_depth})",
                flush=True,
            )
        try:
            await server._shutdown.wait()
        finally:
            await server._drain()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass  # SIGINT on platforms without loop signal handlers
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="BiCord reproduction scenarios"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared ONCE as argparse parent parsers so every
    # subcommand exposes them with byte-identical names, defaults, and help.
    seed_flags = argparse.ArgumentParser(add_help=False)
    seed_flags.add_argument("--seed", type=int, default=0,
                            help="base random seed")
    seed_flags.add_argument("--seeds", type=_positive_int, default=1,
                            metavar="N",
                            help="run N seeds (seed..seed+N-1) and report means")

    exec_flags = argparse.ArgumentParser(add_help=False)
    exec_flags.add_argument("--jobs", type=_positive_int, default=1,
                            help="worker processes (1 = serial)")
    exec_flags.add_argument("--cache-dir", default=None,
                            help="sweep cache directory (default: "
                                 "$BICORD_SWEEP_CACHE or ~/.cache/bicord/sweeps)")
    exec_flags.add_argument("--no-cache", action="store_true",
                            help="disable the on-disk trial cache")
    exec_flags.add_argument("--quiet", action="store_true",
                            help="suppress progress output")

    telemetry_flags = argparse.ArgumentParser(add_help=False)
    telemetry_flags.add_argument("--metrics-out", metavar="PATH", default=None,
                                 help="collect telemetry and write manifest + "
                                      "metrics to PATH (.jsonl or .csv)")
    telemetry_flags.add_argument("-v", "--verbose", action="count", default=0,
                                 help="more logging (repeatable)")

    shared = [seed_flags, exec_flags, telemetry_flags]

    location_flags = argparse.ArgumentParser(add_help=False)
    location_flags.add_argument("--location", choices="ABCD", default="A")

    p = sub.add_parser("coexist", parents=shared + [location_flags],
                       help="one coexistence run (Fig. 10/11 style)")
    p.add_argument("--scheme",
                   choices=("bicord", "ecc", "csma", "predictive", "slow-ctc"),
                   default="bicord")
    p.add_argument("--bursts", type=int, default=30)
    p.add_argument("--packets", type=int, default=5)
    p.add_argument("--payload", type=int, default=50)
    p.add_argument("--interval", type=float, default=0.2,
                   help="mean burst interval in seconds")
    p.add_argument("--periodic", action="store_true",
                   help="fixed intervals instead of Poisson")
    p.add_argument("--ecc-whitespace", type=float, default=20.0,
                   help="ECC white space in ms")
    p.add_argument("--mobility", choices=("none", "person", "device"),
                   default="none")
    p.add_argument("--config", metavar="FILE",
                   help="load the full CoexistenceConfig from a JSON file "
                        "(overrides the other options)")
    p.add_argument("--faults", metavar="FILE",
                   help="JSON file of FaultPlan fields to inject "
                        "(e.g. {\"detection_fn_rate\": 0.2})")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config as JSON and exit")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="run a library scenario instead of the standard "
                        "office workload (forwards scheme/location/mobility "
                        "when the scenario accepts them)")
    p.set_defaults(func=cmd_coexist)

    p = sub.add_parser("signaling", parents=shared + [location_flags],
                       help="precision/recall trial (Tables I-II)")
    p.add_argument("--power", type=float, default=0.0)
    p.add_argument("--packets", type=int, default=4)
    p.add_argument("--salvos", type=int, default=100)
    p.set_defaults(func=cmd_signaling)

    p = sub.add_parser("learning", parents=shared + [location_flags],
                       help="white-space learning (Figs. 7-9)")
    p.add_argument("--packets", type=int, default=10)
    p.add_argument("--step", type=float, default=30.0, help="initial step in ms")
    p.add_argument("--bursts", type=int, default=14)
    p.set_defaults(func=cmd_learning)

    p = sub.add_parser("cti", parents=shared,
                       help="CTI detection accuracy (Sec. VII-A)")
    p.add_argument("--traces", type=int, default=60)
    p.set_defaults(func=cmd_cti)

    p = sub.add_parser("priority", parents=shared,
                       help="prioritized Wi-Fi traffic (Fig. 13)")
    p.add_argument("--scheme", choices=("bicord", "ecc"), default="bicord")
    p.add_argument("--proportion", type=float, default=0.3)
    p.add_argument("--duration", type=float, default=6.0)
    p.set_defaults(func=cmd_priority)

    p = sub.add_parser("energy", parents=shared,
                       help="energy overhead (Sec. VII-B)")
    p.add_argument("--bursts", type=int, default=8)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("ble", parents=shared,
                       help="ZigBee/BLE extension (Sec. VII-D)")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--afh", dest="afh", action="store_true", default=True)
    p.add_argument("--no-afh", dest="afh", action="store_false")
    p.set_defaults(func=cmd_ble)

    p = sub.add_parser(
        "robustness",
        parents=shared + [location_flags],
        help="PRR/latency degradation under injected coordination faults",
        description="Sweep one fault dimension over a grid of rates and "
                    "report the degradation curve (rate 0 = fault-free "
                    "control point).",
    )
    p.add_argument("--dimension",
                   choices=("detection", "control", "cts", "timers", "all"),
                   default="all")
    p.add_argument("--rates", default="0,0.1,0.25,0.5",
                   help="comma-separated fault rates in [0, 1]")
    p.add_argument("--scheme",
                   choices=("bicord", "ecc", "csma", "predictive", "slow-ctc"),
                   default="bicord")
    p.add_argument("--bursts", type=int, default=20)
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="fault-inject a library scenario instead of the "
                        "standard coexistence workload")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser(
        "roaming",
        parents=shared,
        help="multi-AP handoff churn vs coexistence quality",
        description="Sweep client speed x AP density x scheme over a "
                    "roaming scenario and report handoff counts, ping-pongs, "
                    "connectivity gap, and the coexistence metrics.",
    )
    p.add_argument("--scenario",
                   choices=("vehicular-corridor", "campus-roaming"),
                   default="vehicular-corridor")
    p.add_argument("--speeds", default="1.5,5,15",
                   help="comma-separated client speeds in m/s")
    p.add_argument("--aps", default="2,4",
                   help="comma-separated AP counts (>= 2)")
    p.add_argument("--schemes", default="bicord,csma",
                   help="comma-separated coordination schemes")
    p.add_argument("--policy", default="strongest-rssi",
                   help="AP-selection policy (strongest-rssi, sticky)")
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario duration in seconds")
    p.set_defaults(func=cmd_roaming)

    p = sub.add_parser(
        "sweep",
        parents=shared,
        help="parallel parameter sweep over any registered experiment",
        description="Fan a parameter grid out across worker processes; "
                    "finished trials are cached on disk and never re-run.",
    )
    p.add_argument("--experiment", default=None,
                   help=f"one of: {', '.join(experiment_names())}")
    p.add_argument("--param", action="append", metavar="KEY=V1[,V2...]",
                   help="grid axis (repeatable); single values pin a parameter")
    p.add_argument("--clear-cache", action="store_true",
                   help="delete all cached trial results first")
    p.add_argument("--list", action="store_true",
                   help="list registered experiments and their parameters")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "campaign",
        parents=shared,
        help="sharded, journaled, resumable experiment campaign",
        description="Expand a campaign grid into trials, fan them across "
                    "a work-stealing pool, and journal each completion. A "
                    "killed campaign resumes with zero recomputation "
                    "(results are served from the trial cache); `report` "
                    "prints per-scheme means with 95% confidence intervals.",
    )
    p.add_argument("action", choices=("run", "resume", "status", "report",
                                      "gen"))
    p.add_argument("--dir", default="campaign",
                   help="campaign directory (spec + journal + manifest)")
    p.add_argument("--name", default="campaign",
                   help="campaign name (recorded in spec + manifest)")
    p.add_argument("--experiment", default="scenario",
                   help=f"one of: {', '.join(experiment_names())}")
    p.add_argument("--param", action="append", metavar="KEY=V1[,V2...]",
                   help="experiment grid axis (repeatable); integer ranges "
                        "expand as A:B (half-open)")
    p.add_argument("--scenario-param", action="append",
                   metavar="KEY=V1[,V2...]",
                   help="scenario factory grid axis (scenario experiment "
                        "only); A:B expands to an integer range — e.g. "
                        "placement_seed=0:100")
    p.add_argument("--base", action="append", metavar="KEY=VALUE",
                   help="fixed experiment parameter (repeatable)")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="logical shard count (telemetry/manifest grouping)")
    p.add_argument("--compare-by", default="scheme",
                   help="parameter the report groups by (default: scheme)")
    p.add_argument("--max-trials", type=_positive_int, default=None,
                   help="cap the trials executed this invocation "
                        "(campaign stays resumable)")
    p.add_argument("--batch", action="store_true",
                   help="report batch-means CIs (average seeds per "
                        "combination first)")
    p.add_argument("--generator", default=None, metavar="NAME",
                   help="(gen) scenario generator to sweep placements of "
                        "— e.g. random_uniform, clustered")
    p.add_argument("--count", type=_positive_int, default=10,
                   help="(gen) number of generated placements")
    p.add_argument("--axis", default="placement_seed",
                   help="(gen) generator parameter swept over "
                        "start..start+count (default: placement_seed)")
    p.add_argument("--start", type=int, default=0,
                   help="(gen) first value of the swept axis")
    p.add_argument("--gen-param", action="append", metavar="KEY=VALUE",
                   help="(gen) fixed generator parameter (repeatable), "
                        "e.g. n_zigbee_links=6")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the coordination job server (submit/status/result/watch)",
        description="Long-running asyncio job server: accepts experiment "
                    "submissions over a local ND-JSON socket, multiplexes "
                    "them across a bounded worker pool with per-client "
                    "fair priority scheduling and explicit backpressure, "
                    "and serves results by content fingerprint from the "
                    "sweep cache. SIGTERM drains gracefully; queued and "
                    "interrupted jobs resume on the next start.",
    )
    p.add_argument("--state-dir", default="server-state",
                   help="journal + discovery (server.json) directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; see server.json)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="worker processes = concurrent-job ceiling")
    p.add_argument("--queue-depth", type=_positive_int, default=16,
                   help="max queued jobs before submissions are rejected "
                        "with a retry-after hint")
    p.add_argument("--cache-dir", default=None,
                   help="sweep cache directory (default: "
                        "$BICORD_SWEEP_CACHE or ~/.cache/bicord/sweeps)")
    p.add_argument("--snapshot-interval", type=float, default=0.5,
                   help="seconds between telemetry frames on watch streams")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   help="seconds SIGTERM waits for in-flight jobs")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the startup banner and log output")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="more logging (repeatable)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "list", help="list registered experiments and library scenarios"
    )
    p.set_defaults(func=cmd_list)

    p = sub.add_parser(
        "scenario",
        parents=shared,
        help="list, describe, or run library scenarios (repro.scenarios)",
        description="Library scenarios are declarative ScenarioSpecs; "
                    "`run` compiles one with a seed and reports its metrics, "
                    "`describe` prints the resolved spec + fingerprint.",
    )
    p.add_argument("action", choices=("list", "describe", "run"))
    p.add_argument("name", nargs="?", default=None,
                   help="scenario name (see `scenario list`)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="scenario factory parameter override (repeatable)")
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario's duration in seconds")
    p.add_argument("--max-events", type=int, default=None,
                   help="cap the simulated event count (smoke runs)")
    p.add_argument("--fault-plan", default=None, metavar="NAME",
                   help="named fault plan or '<dimension>:<rate>'")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        verbosity=getattr(args, "verbose", 0),
        quiet=getattr(args, "quiet", False),
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
