"""Sharded, crash-safe campaign runner with journaled resume.

A *campaign* is the unit of evaluation above a sweep: a declarative
:class:`CampaignSpec` (experiment + parameter grid + scenario grid + seed
range) expanded into a flat trial list, partitioned into logical *shards*,
and executed through the sweep engine's work-stealing worker pool.  Every
completed trial is persisted twice:

* the **result** goes through the content-addressed sweep cache
  (:mod:`repro.experiments.sweep`) — the substrate that makes resumption
  free of recomputation;
* a **journal line** is appended (fsync'd, JSONL) to the campaign
  directory — the provenance record that makes progress observable without
  touching the cache, and survives ``kill -9`` mid-run because a line is
  written only *after* the trial's cache entry landed.

Killing a campaign at any point therefore loses at most the trials that
were mid-flight; ``resume`` re-plans the same spec, skips every journaled
trial, and the cache serves anything that finished between its last cache
write and the kill.  The journal's header pins the spec fingerprint and
code version, so resuming against a changed spec or incompatible code
fails loudly instead of silently mixing incomparable results.

Layout of a campaign directory::

    <dir>/spec.json      # the CampaignSpec, reloadable
    <dir>/journal.jsonl  # header line + one line per completed trial
    <dir>/manifest.json  # written on completion: provenance + telemetry
    <dir>/report.json    # written on completion: per-scheme CI summaries
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import __version__ as _CODE_VERSION
from ..jsonl import JsonlJournal
from ..log import get_logger
from ..serialization import from_dict, stable_hash, to_dict
from ..telemetry import build_manifest, merge_snapshots
from .registry import get_experiment
from .stats import MetricSummary, aggregate_records, comparison_table
from .sweep import SweepEngine, SweepRun, TrialRecord, expand_grid, trial_key
from .topology import Calibration

#: Journal/manifest layout version; a mismatch refuses to resume.
CAMPAIGN_SCHEMA = 1

_LOG = get_logger("campaign")


class CampaignError(RuntimeError):
    """Campaign directory unusable: corrupt, mismatched, or incomplete."""


# ======================================================================
# Spec + planning
# ======================================================================
@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a whole campaign.

    ``grid`` axes are experiment config fields (like a sweep's);
    ``scenario_grid`` axes are *scenario factory* parameters, merged into
    the nested ``params`` dict of the scenario experiment — e.g.
    ``{"n_links": (2, 4), "placement_seed": tuple(range(10))}`` grids over
    generator placements.  ``seeds`` is the simulation seed range applied
    to every combination.  ``shards`` partitions the trial list into
    logical groups (``index % shards``) whose telemetry is merged
    per-shard in the campaign manifest.
    """

    name: str
    experiment: str = "scenario"
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    scenario_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    shards: int = 1
    compare_by: str = "scheme"

    def __post_init__(self) -> None:
        get_experiment(self.experiment)  # unknown name fails at build time
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.scenario_grid and self.experiment != "scenario":
            raise ValueError(
                "scenario_grid only applies to the 'scenario' experiment"
            )

    def fingerprint(self) -> str:
        """Content address of the spec (layout-versioned)."""
        return stable_hash({"schema": CAMPAIGN_SCHEMA, "spec": to_dict(self)})


@dataclass(frozen=True)
class CampaignTrial:
    """One planned trial: position in the campaign plus its cache address."""

    index: int
    shard: int
    params: Mapping[str, Any]
    seed: int
    key: str


def plan_campaign(
    spec: CampaignSpec, calibration: Optional[Calibration] = None
) -> List[CampaignTrial]:
    """Expand a spec into its full deterministic trial list.

    Expansion order is grid x scenario_grid x seeds, all in insertion
    order, so the trial indices — and therefore the shard assignment and
    the journal — are stable across runs of the same spec.
    """
    combos = expand_grid(spec.grid, spec.base)
    if spec.scenario_grid:
        widened: List[Dict[str, Any]] = []
        for combo in combos:
            for inner in expand_grid(spec.scenario_grid):
                merged = dict(combo)
                merged["params"] = {**dict(merged.get("params", {})), **inner}
                widened.append(merged)
        combos = widened
    trials: List[CampaignTrial] = []
    index = 0
    for combo in combos:
        for seed in spec.seeds:
            trials.append(CampaignTrial(
                index=index,
                shard=index % spec.shards,
                params=combo,
                seed=int(seed),
                key=trial_key(spec.experiment, combo, int(seed), calibration),
            ))
            index += 1
    return trials


def campaign_from_generator(
    name: str,
    generator: str,
    count: int,
    axis: str = "placement_seed",
    start: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    base: Optional[Mapping[str, Any]] = None,
    seeds: Sequence[int] = (0,),
    shards: int = 1,
    compare_by: str = "scheme",
) -> CampaignSpec:
    """A campaign over ``count`` placements of one scenario generator.

    Closes the generator→campaign gap: "a campaign of 1000 random-uniform
    deployments" becomes one call instead of hand-writing a
    ``scenario_grid``.  ``axis`` is the generator parameter that is swept
    over ``range(start, start + count)`` — by default ``placement_seed``,
    the knob the ``random_uniform``/``clustered`` generators re-roll
    placements with.  ``params`` are fixed generator parameters (density,
    area, ...); ``grid``/``base`` are ordinary experiment-level campaign
    axes (e.g. ``{"scheme": ("bicord", "ecc")}`` via the base params dict).

    The generator and axis are validated against the scenario library up
    front, so a typo — or sweeping ``placement_seed`` on the deterministic
    ``grid`` generator, which has no such knob — fails at build time with
    the generator's actual parameter list, not deep inside a worker.
    """
    from ..scenarios import get_scenario_entry

    entry = get_scenario_entry(generator)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    fixed = dict(params or {})
    unknown = sorted((set(fixed) | {axis}) - set(entry.param_names))
    if unknown:
        raise ValueError(
            f"scenario generator {entry.name!r} has no parameter(s) {unknown}; "
            f"valid: {sorted(entry.param_names)}"
        )
    if axis in fixed:
        raise ValueError(
            f"axis {axis!r} also appears in params; it is swept, not fixed"
        )
    reserved = {"scenario", "params"} & set(base or {}) | {"scenario", "params"} & set(grid or {})
    if reserved:
        raise ValueError(
            f"base/grid may not set {sorted(reserved)}; the generator call "
            "owns them (use params=/axis= for generator knobs)"
        )
    merged_base = {"scenario": entry.name, "params": fixed, **dict(base or {})}
    return CampaignSpec(
        name=name,
        experiment="scenario",
        grid=dict(grid or {}),
        base=merged_base,
        scenario_grid={axis: tuple(range(int(start), int(start) + int(count)))},
        seeds=tuple(int(s) for s in seeds),
        shards=shards,
        compare_by=compare_by,
    )


def _flat_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Lift nested scenario factory params to the top level for grouping."""
    flat = dict(params)
    inner = flat.get("params")
    if isinstance(inner, Mapping):
        flat = {**flat, **inner}
        flat.pop("params", None)
    return flat


# ======================================================================
# Journal
# ======================================================================
class CampaignJournal(JsonlJournal):
    """Append-only JSONL progress record of one campaign directory.

    Line 1 is the header (schema, spec fingerprint, code version, trial
    count); every further line is one completed trial.  Appends are
    flushed and fsync'd, so a line either exists completely or not at all
    after a crash; a torn trailing line (the write the kill interrupted)
    is ignored on read and cut off before the next append.  Its trial is
    simply not "done": resume re-serves it from the cache.
    """

    # -- writing -------------------------------------------------------
    def write_header(self, spec: CampaignSpec, total: int) -> None:
        self.append({
            "kind": "header",
            "schema": CAMPAIGN_SCHEMA,
            "fingerprint": spec.fingerprint(),
            "code": _CODE_VERSION,
            "name": spec.name,
            "experiment": spec.experiment,
            "total": int(total),
        })

    def append_trial(
        self, trial: CampaignTrial, record: TrialRecord,
        metrics: Mapping[str, float],
    ) -> None:
        self.append({
            "kind": "trial",
            "index": trial.index,
            "shard": trial.shard,
            "seed": trial.seed,
            "key": trial.key,
            "params": dict(trial.params),
            "cached": bool(record.cached),
            "elapsed": float(record.elapsed),
            "metrics": dict(metrics),
        })

    # -- reading -------------------------------------------------------
    def read(self) -> Tuple[Optional[Dict[str, Any]], Dict[int, Dict[str, Any]]]:
        """(header, {index: trial line}) — duplicates resolved last-wins."""
        header: Optional[Dict[str, Any]] = None
        trials: Dict[int, Dict[str, Any]] = {}
        for line in self.records():
            if line.get("kind") == "header":
                header = line
            elif line.get("kind") == "trial":
                trials[int(line["index"])] = line
        return header, trials


# ======================================================================
# Status / run results
# ======================================================================
@dataclass
class CampaignStatus:
    """Progress snapshot of a campaign directory."""

    name: str
    fingerprint: str
    total: int
    done: int
    cached_hits: int
    shards: int
    per_shard: Dict[int, int]  # shard -> completed trials

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)


@dataclass
class CampaignRun:
    """Outcome of one ``run``/``resume`` invocation."""

    spec: CampaignSpec
    directory: Path
    total: int
    completed: int  # journaled trials after this invocation
    executed: int  # trials actually computed this invocation
    cached_hits: int  # trials served from the cache this invocation
    elapsed: float
    telemetry: Optional[Dict[str, Any]] = None
    summaries: Optional[Dict[Any, Dict[str, MetricSummary]]] = None

    @property
    def complete(self) -> bool:
        return self.completed >= self.total


# ======================================================================
# Runner
# ======================================================================
class CampaignRunner:
    """Drives a campaign directory: start, resume, status, report.

    The runner owns no worker state of its own — execution delegates to
    :meth:`SweepEngine.run_pairs`, whose process pool work-steals trials
    in completion order.  Sharding is *logical*: it partitions the trial
    list for telemetry/manifest grouping and lets operators reason about
    progress in units, while the pool keeps every core busy regardless of
    which shard a trial belongs to.
    """

    def __init__(
        self,
        directory: os.PathLike,
        jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        cache: bool = True,
        calibration: Optional[Calibration] = None,
        telemetry: bool = True,
        quiet: bool = False,
    ):
        self.directory = Path(directory)
        self.jobs = int(jobs)
        self.cache_dir = cache_dir
        #: Disabling the cache keeps the journal-level resume (completed
        #: trials are never re-planned) but forfeits the zero-recompute
        #: guarantee for trials killed mid-flight.
        self.cache = bool(cache)
        self.calibration = calibration
        self.telemetry = bool(telemetry)
        self.quiet = bool(quiet)

    # -- paths ---------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.directory / "spec.json"

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.jsonl"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def report_path(self) -> Path:
        return self.directory / "report.json"

    # -- spec persistence ----------------------------------------------
    def save_spec(self, spec: CampaignSpec) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CAMPAIGN_SCHEMA, "spec": to_dict(spec)}
        tmp = self.spec_path.with_name(f"spec.json.tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.spec_path)

    def load_spec(self) -> CampaignSpec:
        try:
            payload = json.loads(self.spec_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(
                f"no campaign at {self.directory} (missing spec.json): {exc}"
            ) from None
        if payload.get("schema") != CAMPAIGN_SCHEMA:
            raise CampaignError(
                f"campaign schema {payload.get('schema')!r} != {CAMPAIGN_SCHEMA}; "
                "start a new campaign directory"
            )
        return from_dict(CampaignSpec, payload["spec"])

    # -- execution ------------------------------------------------------
    def run(
        self,
        spec: Optional[CampaignSpec] = None,
        max_trials: Optional[int] = None,
        progress: Optional[Any] = None,
    ) -> CampaignRun:
        """Run (or resume) the campaign; returns the invocation's outcome.

        With ``spec`` given, a fresh campaign is started in the directory
        (refusing to clobber a different existing one).  Without it, the
        directory's own spec is loaded — that is a resume.  ``max_trials``
        caps how many *pending* trials execute this invocation (smoke
        tests and incremental fills); the journal keeps the campaign
        resumable past the cap.
        """
        if spec is not None:
            existing = self.spec_path.exists()
            if existing:
                current = self.load_spec()
                if current.fingerprint() != spec.fingerprint():
                    raise CampaignError(
                        f"campaign directory {self.directory} already holds "
                        f"{current.name!r} with a different spec; use a fresh "
                        "directory or resume without --spec overrides"
                    )
            else:
                self.save_spec(spec)
        else:
            spec = self.load_spec()

        trials = plan_campaign(spec, self.calibration)
        journal = CampaignJournal(self.journal_path)
        header, done_lines = journal.read()
        if header is not None:
            if header.get("schema") != CAMPAIGN_SCHEMA:
                raise CampaignError(
                    f"journal schema {header.get('schema')!r} != "
                    f"{CAMPAIGN_SCHEMA}; start a new campaign directory"
                )
            if header.get("fingerprint") != spec.fingerprint():
                raise CampaignError(
                    "journal was written by a different campaign spec; "
                    "refusing to mix results — use a fresh directory"
                )
        by_index = {trial.index: trial for trial in trials}
        stale = [
            idx for idx, line in done_lines.items()
            if idx not in by_index or by_index[idx].key != line.get("key")
        ]
        if stale:
            raise CampaignError(
                f"{len(stale)} journaled trial(s) no longer match the plan "
                "(code or config changed since the journal was written); "
                "start a new campaign directory"
            )

        pending = [trial for trial in trials if trial.index not in done_lines]
        capped = pending if max_trials is None else pending[: int(max_trials)]
        start = time.perf_counter()
        if header is None:
            journal.write_header(spec, len(trials))

        sweep_run: Optional[SweepRun] = None
        try:
            if capped:
                sweep_run = self._execute(spec, capped, journal, progress)
        finally:
            journal.close()

        completed = len(done_lines) + len(capped)
        run = CampaignRun(
            spec=spec,
            directory=self.directory,
            total=len(trials),
            completed=completed,
            executed=sweep_run.executed if sweep_run else 0,
            cached_hits=sweep_run.cached_hits if sweep_run else 0,
            elapsed=time.perf_counter() - start,
            telemetry=sweep_run.telemetry if sweep_run else None,
        )
        if run.complete:
            run.summaries = self.report()
            self._write_manifest(spec, trials, run)
        return run

    def _execute(
        self,
        spec: CampaignSpec,
        capped: Sequence[CampaignTrial],
        journal: CampaignJournal,
        progress: Optional[Any],
    ) -> SweepRun:
        """Fan the pending trials through the sweep engine, journaling each."""
        exp = get_experiment(spec.experiment)
        by_position = {pos: trial for pos, trial in enumerate(capped)}

        def on_trial(record: TrialRecord, n_done: int, n_total: int) -> None:
            # Runs in the parent, strictly after the engine cached the
            # result — the journal line is the *second* persistence step,
            # so its existence implies the cache entry's.
            trial = by_position[record.index]
            journal.append_trial(trial, record, _metrics_of(record.result))
            if progress is not None:
                progress(trial, record, n_done, n_total)

        engine = SweepEngine(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            cache=self.cache,
            telemetry=self.telemetry,
            progress=on_trial,
            quiet=self.quiet,
        )
        if not self.quiet:
            _LOG.info(
                "campaign %s: %d pending trial(s) across %d shard(s), jobs=%d",
                spec.name, len(capped), spec.shards, self.jobs,
            )
        run = engine.run_pairs(
            exp.name,
            [(dict(trial.params), trial.seed) for trial in capped],
            calibration=self.calibration,
        )
        return run

    # -- inspection -----------------------------------------------------
    def status(self) -> CampaignStatus:
        """Progress of the campaign directory (plan is re-derived)."""
        spec = self.load_spec()
        trials = plan_campaign(spec, self.calibration)
        _, done_lines = CampaignJournal(self.journal_path).read()
        per_shard: Dict[int, int] = {shard: 0 for shard in range(spec.shards)}
        for line in done_lines.values():
            per_shard[int(line.get("shard", 0))] = (
                per_shard.get(int(line.get("shard", 0)), 0) + 1
            )
        return CampaignStatus(
            name=spec.name,
            fingerprint=spec.fingerprint(),
            total=len(trials),
            done=len(done_lines),
            cached_hits=sum(
                1 for line in done_lines.values() if line.get("cached")
            ),
            shards=spec.shards,
            per_shard=per_shard,
        )

    def verify_cache(self) -> Tuple[int, int]:
        """(still-cached, journaled) — how resumable the campaign is.

        Every journaled trial whose cache entry still loads is free on
        resume; the difference is what a resume would recompute.
        """
        spec = self.load_spec()
        exp = get_experiment(spec.experiment)
        _, done_lines = CampaignJournal(self.journal_path).read()
        engine = SweepEngine(
            cache_dir=self.cache_dir, cache=self.cache,
            telemetry=self.telemetry,
        )
        hits = sum(
            1 for line in done_lines.values()
            if engine.cache_has(line["key"], exp.result_cls)
        )
        return hits, len(done_lines)

    def records(self) -> List[Tuple[Dict[str, Any], Dict[str, float]]]:
        """Flat ``(params, metrics)`` pairs of every journaled trial."""
        _, done_lines = CampaignJournal(self.journal_path).read()
        return [
            (_flat_params(line.get("params", {})), dict(line.get("metrics", {})))
            for _, line in sorted(done_lines.items())
        ]

    def report(
        self, batch: bool = False
    ) -> Dict[Any, Dict[str, MetricSummary]]:
        """Per-group (default: per-scheme) metric summaries with 95% CIs."""
        spec = self.load_spec()
        records = self.records()
        if not records:
            raise CampaignError(
                f"campaign {self.directory} has no completed trials yet"
            )
        return aggregate_records(records, compare_by=spec.compare_by, batch=batch)

    def report_text(self, batch: bool = False) -> str:
        """The report as a fixed-width comparison table."""
        return comparison_table(self.report(batch=batch))

    def load_report(self) -> Dict[str, Dict[str, MetricSummary]]:
        """Read ``report.json`` back as typed :class:`MetricSummary` objects.

        Inverse of the serialization in :meth:`_write_manifest`: every
        metric payload goes through :meth:`MetricSummary.from_dict`, so
        ``n`` comes back as an int and the statistics as floats — a
        completed campaign's report round-trips exactly.
        """
        if not self.report_path.exists():
            raise CampaignError(
                f"campaign {self.directory} has no report.json yet "
                "(reports are written when a run completes)"
            )
        with open(self.report_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return {
            group: {
                name: MetricSummary.from_dict(summary)
                for name, summary in metrics.items()
            }
            for group, metrics in payload.items()
        }

    # -- manifest -------------------------------------------------------
    def _write_manifest(
        self, spec: CampaignSpec, trials: Sequence[CampaignTrial],
        run: CampaignRun,
    ) -> None:
        """Merge per-shard provenance + telemetry into one campaign manifest."""
        _, done_lines = CampaignJournal(self.journal_path).read()
        shard_manifests: List[Dict[str, Any]] = []
        shard_snapshots: List[Dict[str, Any]] = []
        for shard in range(spec.shards):
            lines = [
                line for line in done_lines.values()
                if int(line.get("shard", 0)) == shard
            ]
            if not lines:
                continue
            shard_metrics = aggregate_records(
                [
                    (_flat_params(l.get("params", {})), l.get("metrics", {}))
                    for l in lines
                ],
                compare_by=spec.compare_by,
            )
            headline = {
                f"{group}.{name}": summary.mean
                for group, metrics in shard_metrics.items()
                for name, summary in metrics.items()
            }
            manifest = build_manifest(
                experiment=spec.experiment,
                seeds=sorted({int(l["seed"]) for l in lines}),
                calibration=self.calibration,
                wall_time_s=sum(float(l.get("elapsed", 0.0)) for l in lines),
                metrics=headline,
                extra={"campaign": spec.name, "shard": shard,
                       "trials": len(lines)},
            )
            shard_manifests.append(manifest.to_dict())
        if run.telemetry is not None:
            shard_snapshots.append(run.telemetry)
        payload = {
            "schema": CAMPAIGN_SCHEMA,
            "name": spec.name,
            "fingerprint": spec.fingerprint(),
            "code": _CODE_VERSION,
            "experiment": spec.experiment,
            "trials": len(trials),
            "shards": spec.shards,
            "compare_by": spec.compare_by,
            "executed_last_run": run.executed,
            "cached_hits_last_run": run.cached_hits,
            "shard_manifests": shard_manifests,
            "telemetry": (
                merge_snapshots(shard_snapshots) if shard_snapshots else None
            ),
            "report": {
                str(group): {
                    name: summary.to_dict()
                    for name, summary in metrics.items()
                }
                for group, metrics in (run.summaries or {}).items()
            },
        }
        tmp = self.manifest_path.with_name(f"manifest.json.tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)
        report_tmp = self.report_path.with_name(f"report.json.tmp{os.getpid()}")
        with open(report_tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload["report"], sort_keys=True, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(report_tmp, self.report_path)


def _metrics_of(result: Any) -> Dict[str, float]:
    """A result's flat metrics; tolerant of pre-contract shapes."""
    metrics = getattr(result, "metrics", None)
    if callable(metrics):
        return {name: float(value) for name, value in metrics().items()}
    if dataclasses.is_dataclass(result):
        return {
            f.name: float(getattr(result, f.name))
            for f in dataclasses.fields(result)
            if isinstance(getattr(result, f.name), (bool, int, float))
        }
    return {}
