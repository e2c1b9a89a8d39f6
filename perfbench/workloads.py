"""The benchmark's workloads: inputs, the timed calls, and output checks.

Each workload function runs once in a fresh worker process and returns a
:class:`Outcome`: the host times the worker needs for its end-to-end
metrics (read from the clock the worker passes in), the correctness
checks it made, and what it knows about the program's own results.
Every input comes from the workload seed through :func:`derive`, and
every horizon is simulated time, so two commits simulate the same span.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: paper-sweep: the Fig. 10 comparison grid through the sweep engine.
SWEEP_SCHEMES = ("bicord", "ecc", "csma")
SWEEP_LOCATIONS = ("A", "C")
SWEEP_SEEDS = 2
SWEEP_BURSTS = 10
#: The grid workloads measure the medium, link and reception layers, so
#: their ZigBee links use plain CSMA: with BiCord's coordinator, white-space
#: grants silence nearby Wi-Fi pairs for tens of milliseconds, and over a
#: dense-grid horizon the number of transmissions then varied from 462 to
#: 536 between simulation seeds (CSMA: 515 to 531).
GRID_SCHEME = "csma"
#: dense-grid: 800 radios (320 ZigBee links, 80 Wi-Fi pairs).  Reception
#: work per simulated second differs by up to 28% between simulation seeds
#: (185k vs 238k reception calls to 0.16 s, the same gap to 0.32 s), so a
#: run averages two deployments.
DENSE_ZIGBEE, DENSE_WIFI, DENSE_HORIZON_S = 320, 80, 0.10
DENSE_DEPLOYMENTS = 2
#: mobility-churn: 200 radios; every other ZigBee sender walks a seeded
#: random waypoint path in a box around its grid slot.  Host time of one
#: deployment varied by 12-20% (quartile spread) from one simulation seed
#: to the next, and a longer horizon did not shrink that, so a run
#: averages several independent deployments.
CHURN_ZIGBEE, CHURN_WIFI, CHURN_HORIZON_S = 80, 20, 0.4
CHURN_DEPLOYMENTS = 4
CHURN_TICK_S = 0.02
CHURN_BOX_M = 4.0
CHURN_SPEED_MPS = 1.5
#: A cap no run reaches: a capped ``CompiledScenario.run`` skips the grace
#: drain, so the run ends exactly at the simulated horizon.
NO_EVENT_CAP = 10**12


def derive(seed: int, label: str) -> int:
    """A 31-bit input seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.result_at: Optional[float] = None  # the clock with the result in hand
        self.sim_seconds = 0.0
        #: The program's own telemetry counters (traced run only).
        self.counters: Dict[str, float] = {}
        self.checks: List[Tuple[str, bool]] = []
        #: Workload-specific numbers for the per-layer breakdown.
        self.layer: Dict[str, float] = {}
        #: Extra end-to-end readings printed beside the gated metrics.
        self.extra: Dict[str, float] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def _scenario_checks(out: Outcome, result, radios, horizon: float) -> None:
    out.check("horizon reached", result.duration >= horizon - 1e-12)
    out.check(
        "zigbee delivered <= offered",
        all(link.delivered <= link.offered for link in result.links.values()),
    )
    out.check(
        "wifi delivered <= sent",
        all(link.delivered <= link.sent for link in result.wifi.values()),
    )
    # A scenario's utilization is airtime summed over all its links (see
    # docs/architecture.md), so with many links it legitimately exceeds 1;
    # what must stay in [0, 1] is each half-duplex radio's own share.
    u = result.utilization
    out.check(
        "utilizations in [0, 1] per radio",
        all(0.0 <= x <= len(radios) for x in (u.channel_utilization, u.zigbee_utilization,
                                              u.wifi_utilization))
        and all(0.0 <= r.tx_airtime <= result.duration for r in radios),
    )


def _telemetry_scope(enabled: bool):
    """Collect the program's telemetry counters into a fresh registry."""
    if not enabled:
        return contextlib.nullcontext(None)
    from repro import telemetry

    return telemetry.collect()


def _counters(registry) -> Dict[str, float]:
    return dict(registry.snapshot(spans=False).get("counters", {})) if registry else {}


def _deployments(out: Outcome, seed: int, span: Callable, telemetry: bool,
                 clock: Callable[[], float], count: int, n_zigbee: int, n_wifi: int,
                 horizon: float, walkers: bool) -> None:
    """Compile and run ``count`` grid deployments, one after another.

    Each deployment draws its own simulation (and walker) seeds from the
    workload seed, so a run averages over several independent inputs.
    """
    from repro.scenarios import compile_scenario, get_scenario

    def build(sim_seed: int):
        spec = get_scenario("grid", n_zigbee_links=n_zigbee, n_wifi_pairs=n_wifi,
                            scheme=GRID_SCHEME)
        return compile_scenario(spec, seed=sim_seed, trace_kinds=set())

    with _telemetry_scope(telemetry) as registry:
        for k in range(count):
            start = clock()
            compiled = span(build, "scenarios:compile")(derive(seed, f"sim/{k}"))
            out.layer["scenarios.compile_s"] = (
                out.layer.get("scenarios.compile_s", 0.0) + clock() - start
            )
            moving = (span(_attach_walkers, "mobility:attach")(compiled, derive(seed, f"walk/{k}"))
                      if walkers else [])
            result = compiled.run(until=horizon, max_events=NO_EVENT_CAP)
            out.result_at = clock()
            out.sim_seconds += compiled.sim.now
            _scenario_checks(out, result, compiled.ctx.medium.radios, horizon)
            out.check("result counts the events the simulator fired",
                      result.events_processed == compiled.sim.events_processed)
            if walkers:
                ticks = round(horizon / CHURN_TICK_S)
                out.check("every walker moved on every tick",
                          all(w.ticks_applied >= ticks for w in moving))
            # Free this deployment before building the next, so peak memory
            # is one deployment's and not whatever the collector left over.
            del compiled, moving, result
            gc.collect()
    out.counters = _counters(registry)


def dense_grid(seed: int, span: Callable, workdir: Path, telemetry: bool,
               clock: Callable[[], float]) -> Outcome:
    out = Outcome()
    _deployments(out, seed, span, telemetry, clock, DENSE_DEPLOYMENTS, DENSE_ZIGBEE,
                 DENSE_WIFI, DENSE_HORIZON_S, walkers=False)
    return out


def mobility_churn(seed: int, span: Callable, workdir: Path, telemetry: bool,
                   clock: Callable[[], float]) -> Outcome:
    out = Outcome()
    _deployments(out, seed, span, telemetry, clock, CHURN_DEPLOYMENTS, CHURN_ZIGBEE,
                 CHURN_WIFI, CHURN_HORIZON_S, walkers=True)
    return out


def _attach_walkers(compiled, seed: int) -> List[Any]:
    """Every other ZigBee sender walks its own random waypoint path."""
    from repro.mobility import RandomWaypointTrajectory, TrajectoryProcess

    walkers = []
    half = CHURN_BOX_M / 2.0
    for i, link in enumerate(compiled.zigbee_links.values()):
        if i % 2:
            continue
        radio = link.sender.radio
        x, y = radio.position.x, radio.position.y
        trajectory = RandomWaypointTrajectory(
            area=(CHURN_BOX_M, CHURN_BOX_M), speed_mps=CHURN_SPEED_MPS,
            seed=derive(seed, str(i)), origin=(x - half, y - half),
        )
        walkers.append(TrajectoryProcess(
            compiled.ctx, [radio], trajectory, tick=CHURN_TICK_S,
            name=f"walk-{link.spec.name}",
        ))
    return walkers


def _pooled_mean_delay(records, scheme: str, location: str) -> float:
    delays = [
        d for r in records
        if r.params["scheme"] == scheme and r.params["location"] == location
        for d in r.result.zigbee_delays
    ]
    return statistics.fmean(delays) if delays else float("inf")


def paper_sweep(seed: int, span: Callable, workdir: Path, telemetry: bool,
                clock: Callable[[], float]) -> Outcome:
    import repro.api as api

    out = Outcome()
    cache_dir = workdir / f"sweep-cache-{derive(seed, 'cache')}-{time.time_ns()}"
    grid = {"scheme": list(SWEEP_SCHEMES), "location": list(SWEEP_LOCATIONS)}
    seeds = [derive(seed, f"sweep/{k}") for k in range(SWEEP_SEEDS)]

    def sweep():
        return api.sweep(
            "coexistence", grid=grid, base={"n_bursts": SWEEP_BURSTS}, seeds=seeds,
            jobs=1, cache_dir=cache_dir, quiet=True, telemetry=telemetry,
        )

    try:
        cold = span(sweep, "experiments:sweep_cold")()
        out.result_at = clock()
        warm = span(sweep, "experiments:sweep_warm")()
        warm_s = clock() - out.result_at
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    trials = len(cold.records)
    out.sim_seconds = sum(r.result.duration for r in cold.records)
    if cold.telemetry:
        out.counters = dict(cold.telemetry.get("counters", {}))
    out.check("every trial ran cold",
              cold.executed == trials == len(seeds) * len(SWEEP_SCHEMES) * len(SWEEP_LOCATIONS))
    out.check("warm pass served every trial from the cache", warm.cached_hits == trials)
    out.check(
        "warm results equal cold results field for field",
        [(r.params, r.seed, r.result.to_dict()) for r in warm.records]
        == [(r.params, r.seed, r.result.to_dict()) for r in cold.records],
    )
    horizon = SWEEP_BURSTS * 200e-3
    results = [r.result for r in cold.records]
    out.check("horizon reached", all(r.duration >= horizon for r in results))
    out.check(
        "zigbee delivered <= offered",
        all(r.zigbee_packets_delivered <= r.zigbee_packets_offered for r in results),
    )
    out.check(
        "utilizations in [0, 1]",
        all(0.0 <= x <= 1.0 for r in results
            for x in (r.channel_utilization, r.zigbee_utilization, r.wifi_utilization)),
    )
    # EXPERIMENTS.md documents the Fig. 10 ordering at location A, where it
    # held for each of 40 simulation seeds at this size.  At C, BiCord's
    # delay is heavy-tailed: for 5 of those 40 seeds it exceeded ECC's (up
    # to 932 vs 393 ms), so C's ordering is printed, not checked.
    delays = {
        (scheme, location): _pooled_mean_delay(cold.records, scheme, location)
        for scheme in ("bicord", "ecc") for location in SWEEP_LOCATIONS
    }
    out.check("Fig. 10: BiCord delay below ECC at A",
              delays["bicord", "A"] < delays["ecc", "A"])
    for location in SWEEP_LOCATIONS:
        out.extra[f"bicord_delay_{location}_ms"] = delays["bicord", location] * 1e3
        out.extra[f"ecc_delay_{location}_ms"] = delays["ecc", location] * 1e3
    out.extra["cached_trials_per_s"] = trials / warm_s
    out.layer.update({
        "experiments.cache_hit_ratio": warm.cached_hits / trials,
        "experiments.cache_load_s": warm_s,
        "experiments.cached_trials_per_s": trials / warm_s,
        "experiments.trial_elapsed_s": sum(r.elapsed for r in cold.records),
    })
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "paper-sweep": paper_sweep,
    "dense-grid": dense_grid,
    "mobility-churn": mobility_churn,
}
