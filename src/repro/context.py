"""Simulation context: one object bundling the kernel pieces of a scenario.

Every experiment needs the same five things wired together — a simulator, a
seeded stream factory, a trace recorder, a propagation channel, and the
medium.  :func:`build_context` assembles them so device constructors stay
short and every random draw in a scenario is derived from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from . import telemetry as _telemetry
from .faults import FaultHarness, FaultPlan, build_harness
from .phy.medium import Medium
from .phy.propagation import Channel, FadingModel, PathLossModel
from .sim.engine import Simulator
from .sim.rng import RandomStreams
from .sim.trace import TraceRecorder
from .telemetry import MetricsRegistry


@dataclass
class SimContext:
    """The shared plumbing of one simulated scenario."""

    sim: Simulator
    streams: RandomStreams
    trace: TraceRecorder
    channel: Channel
    medium: Medium
    #: Seeded fault injectors for this scenario; ``None`` = fault-free.
    #: Devices and protocol layers consult this at construction time, so the
    #: harness must be installed before devices are built (pass the plan to
    #: :func:`build_context` rather than assigning afterwards).
    faults: Optional[FaultHarness] = None
    #: Metrics registry the scenario reports to.  Captured from the active
    #: :func:`repro.telemetry.collect` scope at build time; outside a scope
    #: this is the shared no-op :data:`repro.telemetry.NULL` registry, so
    #: instrumented components never need a None check.
    telemetry: MetricsRegistry = field(default_factory=lambda: _telemetry.NULL)

    @property
    def now(self) -> float:
        return self.sim.now


def build_context(
    seed: int = 0,
    path_loss: Optional[PathLossModel] = None,
    fading: Optional[FadingModel] = None,
    trace_kinds: Optional[Set[str]] = None,
    faults: Optional[FaultPlan] = None,
) -> SimContext:
    """Create a fully wired :class:`SimContext`.

    ``trace_kinds`` restricts which record kinds are *stored* (counters are
    always kept); pass ``None`` to store everything, or an empty set to store
    nothing.  ``faults`` is an optional :class:`~repro.faults.FaultPlan`
    whose injectors are seeded from the same stream family as everything
    else; an inert plan leaves the context exactly fault-free.
    """
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    trace = TraceRecorder(enabled_kinds=trace_kinds)
    channel = Channel(
        path_loss=path_loss or PathLossModel(),
        fading=fading or FadingModel(),
        streams=streams,
    )
    registry = _telemetry.active()
    medium = Medium(sim, channel, trace=trace, telemetry=registry)
    return SimContext(
        sim=sim, streams=streams, trace=trace, channel=channel, medium=medium,
        faults=build_harness(faults, streams),
        telemetry=registry,
    )
