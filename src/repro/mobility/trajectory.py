"""Trajectory models and the process that drives radios along them.

A :class:`Trajectory` is a pure function of time: ``position_at(t)`` returns
the (x, y) a rider occupies ``t`` seconds after the trajectory starts.  Two
models ship:

* :class:`WaypointTrajectory` — a piecewise-linear path through explicit
  waypoints with one speed per leg (or a shared speed), optionally closed
  into a loop;
* :class:`RandomWaypointTrajectory` — the classic random-waypoint model,
  seeded through its own ``numpy`` generator so the path is a deterministic
  function of the seed and never perturbs the simulation's RNG streams.

:class:`TrajectoryProcess` samples a trajectory at a fixed tick and applies
the positions through :meth:`repro.phy.medium.Medium.move_many`, so each
tick costs one channel-gain invalidation no matter how many radios ride
the trajectory.  The medium keys its link rows on the channel's position
epoch, which is exactly what the move advances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..phy.propagation import Position
from ..sim.process import Process

Point = Tuple[float, float]


class Trajectory:
    """A time-parameterized path: ``position_at(t)`` in meters."""

    def position_at(self, t: float) -> Point:
        raise NotImplementedError

    @property
    def end_time(self) -> Optional[float]:
        """Time the path ends and the rider parks, or ``None`` if endless."""
        return None


class WaypointTrajectory(Trajectory):
    """A piecewise-linear path through waypoints at per-leg speeds.

    ``leg_speeds`` (m/s) must match the number of legs when given — a loop
    adds one closing leg back to the first waypoint — otherwise every leg
    runs at ``speed_mps``.  A non-loop path parks at its last waypoint; a
    loop repeats forever.
    """

    def __init__(
        self,
        waypoints: Sequence[Point],
        speed_mps: float = 1.0,
        leg_speeds: Sequence[float] = (),
        loop: bool = False,
    ):
        points: List[Point] = [(float(x), float(y)) for x, y in waypoints]
        if len(points) < 2:
            raise ValueError(
                f"a waypoint trajectory needs >= 2 waypoints, got {len(points)}"
            )
        if loop and points[-1] != points[0]:
            points.append(points[0])
        n_legs = len(points) - 1
        if leg_speeds:
            speeds = [float(s) for s in leg_speeds]
            if len(speeds) != n_legs:
                raise ValueError(
                    f"leg_speeds must have one entry per leg ({n_legs}, loops "
                    f"include the closing leg), got {len(speeds)}"
                )
        else:
            speeds = [float(speed_mps)] * n_legs
        if any(s <= 0.0 for s in speeds):
            raise ValueError(f"leg speeds must be > 0, got {speeds}")
        self.loop = bool(loop)
        self._points = points
        #: Cumulative arrival time at each point (``_times[0] == 0``).
        self._times = [0.0]
        for (ax, ay), (bx, by), speed in zip(points, points[1:], speeds):
            self._times.append(self._times[-1] + math.hypot(bx - ax, by - ay) / speed)
        self._total = self._times[-1]
        if self.loop and self._total <= 0.0:
            raise ValueError("a looped trajectory must have non-zero length")

    @property
    def end_time(self) -> Optional[float]:
        return None if self.loop else self._total

    @property
    def path_time(self) -> float:
        """Seconds one full traversal takes (the loop period when looped)."""
        return self._total

    def position_at(self, t: float) -> Point:
        t = float(t)
        if self._total <= 0.0 or t <= 0.0:
            return self._points[0]
        if self.loop:
            t = t % self._total
        elif t >= self._total:
            return self._points[-1]
        i = min(bisect_right(self._times, t) - 1, len(self._points) - 2)
        t0, t1 = self._times[i], self._times[i + 1]
        frac = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
        (ax, ay), (bx, by) = self._points[i], self._points[i + 1]
        return (ax + frac * (bx - ax), ay + frac * (by - ay))


class RandomWaypointTrajectory(Trajectory):
    """Random-waypoint motion inside a rectangle, from a dedicated seed.

    The rider repeatedly draws a uniform target inside ``origin + area``,
    walks to it at ``speed_mps``, and pauses ``pause`` seconds.  Segments
    are materialized lazily as ``position_at`` asks for later times, so the
    model is endless but still a deterministic function of ``seed``.
    """

    def __init__(
        self,
        area: Point = (30.0, 10.0),
        speed_mps: float = 1.5,
        pause: float = 0.0,
        seed: int = 0,
        origin: Point = (0.0, 0.0),
    ):
        if area[0] <= 0.0 or area[1] <= 0.0:
            raise ValueError(f"area sides must be > 0, got {area}")
        if speed_mps <= 0.0:
            raise ValueError(f"speed_mps must be > 0, got {speed_mps}")
        if pause < 0.0:
            raise ValueError(f"pause must be >= 0, got {pause}")
        self._area = (float(area[0]), float(area[1]))
        self._origin = (float(origin[0]), float(origin[1]))
        self._speed = float(speed_mps)
        self._pause = float(pause)
        self._rng = np.random.default_rng(int(seed))
        #: (t0, t1, a, b) segments; a pause is a segment with ``a == b``.
        self._segments: List[Tuple[float, float, Point, Point]] = []
        self._starts: List[float] = []
        self._cursor_time = 0.0
        self._cursor_pos = self._draw()

    def _draw(self) -> Point:
        ox, oy = self._origin
        w, h = self._area
        return (
            float(self._rng.uniform(ox, ox + w)),
            float(self._rng.uniform(oy, oy + h)),
        )

    def _extend_to(self, t: float) -> None:
        while self._cursor_time <= t:
            target = self._draw()
            ax, ay = self._cursor_pos
            dur = math.hypot(target[0] - ax, target[1] - ay) / self._speed
            if dur > 0.0:
                self._starts.append(self._cursor_time)
                self._segments.append(
                    (self._cursor_time, self._cursor_time + dur, self._cursor_pos, target)
                )
                self._cursor_time += dur
                self._cursor_pos = target
            if self._pause > 0.0:
                self._starts.append(self._cursor_time)
                self._segments.append(
                    (self._cursor_time, self._cursor_time + self._pause, target, target)
                )
                self._cursor_time += self._pause

    def position_at(self, t: float) -> Point:
        t = max(0.0, float(t))
        self._extend_to(t)
        i = max(0, bisect_right(self._starts, t) - 1)
        t0, t1, (ax, ay), (bx, by) = self._segments[i]
        frac = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
        frac = min(1.0, frac)
        return (ax + frac * (bx - ax), ay + frac * (by - ay))


class TrajectoryProcess:
    """Drive radios along a trajectory at a fixed tick.

    Every ``tick`` seconds the process samples ``trajectory.position_at(now)``
    and relocates all riders in one :meth:`~repro.phy.medium.Medium.move_many`
    batch — a single position-epoch advance per tick regardless of rider
    count.  ``offsets`` keeps a formation apart (each rider sits at the
    sampled point plus its own (dx, dy)).  A finite trajectory parks its
    riders at the final waypoint and ends; endless trajectories tick until
    stopped.
    """

    def __init__(
        self,
        ctx,
        radios: Iterable,
        trajectory: Trajectory,
        tick: float = 0.1,
        offsets: Optional[Sequence[Point]] = None,
        name: str = "trajectory",
    ):
        if tick <= 0.0:
            raise ValueError(f"tick must be > 0, got {tick}")
        self.ctx = ctx
        self.radios = list(radios)
        if not self.radios:
            raise ValueError("a trajectory needs at least one radio to move")
        if offsets is None:
            offsets = [(0.0, 0.0)] * len(self.radios)
        if len(offsets) != len(self.radios):
            raise ValueError(
                f"{len(self.radios)} radios but {len(offsets)} offsets"
            )
        self.offsets = [(float(dx), float(dy)) for dx, dy in offsets]
        self.trajectory = trajectory
        self.tick = float(tick)
        #: Number of move batches applied so far (one per tick).
        self.ticks_applied = 0
        self._process = Process(ctx.sim, self._run(), name=name)

    def _run(self):
        sim = self.ctx.sim
        medium = self.ctx.medium
        trajectory = self.trajectory
        while True:
            x, y = trajectory.position_at(sim.now)
            medium.move_many(
                (radio, Position(x + dx, y + dy))
                for radio, (dx, dy) in zip(self.radios, self.offsets)
            )
            self.ticks_applied += 1
            end = trajectory.end_time
            if end is not None and sim.now >= end:
                return
            yield self.tick

    def stop(self) -> None:
        self._process.stop()

    @property
    def running(self) -> bool:
        return self._process.running
