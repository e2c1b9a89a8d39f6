"""Run manifests: one provenance record per executed run.

A :class:`RunManifest` captures everything needed to say *what produced
these numbers*: experiment name, digest of the fully-resolved config, the
seed(s), calibration digest, code version, a fault-plan summary, and the
headline metrics — plus the only wall-clock fields telemetry is allowed to
carry (``started_at`` / ``wall_time_s``).  Manifests are provenance, not
cache input: they are written to the metrics export but never hashed into
sweep ``trial_key``s, so re-running a cached sweep reproduces identical
metric values even though the manifest's timing fields differ.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..serialization import stable_hash, to_dict


@dataclass
class RunManifest:
    """Provenance of one experiment run (or one whole sweep)."""

    experiment: str
    config_digest: str
    seeds: Tuple[int, ...]
    calibration_digest: str
    code_version: str
    #: Non-zero fault-plan rates, or None when the run was fault-free.
    faults: Optional[Dict[str, float]]
    #: ISO-8601 local start time — wall clock, manifest-only by design.
    started_at: str
    wall_time_s: float
    #: The headline numbers of the run (result summary / aggregate).
    metrics: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Library scenario identity, when the run compiled one ("" otherwise):
    #: the canonical name plus the content address of the resolved spec.
    scenario: str = ""
    scenario_fingerprint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return to_dict(self)


def _fault_summary(plan: Any) -> Optional[Dict[str, float]]:
    """Non-zero numeric fields of a FaultPlan-like dataclass, or None."""
    if plan is None or not dataclasses.is_dataclass(plan):
        return None
    rates = {
        f.name: float(getattr(plan, f.name))
        for f in dataclasses.fields(plan)
        if isinstance(getattr(plan, f.name), (int, float)) and getattr(plan, f.name)
    }
    return rates or None


def build_manifest(
    experiment: str,
    config: Any = None,
    seeds: Sequence[int] = (),
    calibration: Any = None,
    faults: Any = None,
    wall_time_s: float = 0.0,
    metrics: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
    started_at: Optional[float] = None,
    scenario: str = "",
    scenario_fingerprint: str = "",
) -> RunManifest:
    """Assemble a manifest from the objects a runner already has in hand.

    ``config`` and ``calibration`` may be dataclasses, plain dicts, or
    ``None``; only their content digests are stored (the config itself is
    reproducible from the CLI/registry, the digest pins *which* one it was).
    """
    # Imported lazily: repro/__init__ -> context -> telemetry would otherwise
    # form a cycle before __version__ is bound.
    from .. import __version__ as code_version

    stamp = time.time() if started_at is None else started_at
    return RunManifest(
        experiment=experiment,
        config_digest=stable_hash(to_dict(config)) if config is not None else "",
        seeds=tuple(int(s) for s in seeds),
        calibration_digest=(
            stable_hash(to_dict(calibration)) if calibration is not None else ""
        ),
        code_version=code_version,
        faults=_fault_summary(faults),
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(stamp)),
        wall_time_s=float(wall_time_s),
        metrics=dict(metrics or {}),
        extra=dict(extra or {}),
        scenario=scenario,
        scenario_fingerprint=scenario_fingerprint,
    )
