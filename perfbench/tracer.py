"""Span recorder for the traced run.

A span is one call into a layer: a name, a start, an end and the id of the
span that was open when it started (its parent).  Spans are kept in memory
in four flat arrays (about 24 bytes a span) and written out once, when the
run ends.  A span's self time is its duration minus the durations of its
children; summing self times per name, and names per layer, gives the
per-layer breakdown.  Time that no span covers is reported as unattributed.

The recorder only observes: it wraps callables (layer entry points, event
callbacks) and never changes their arguments, results or exceptions.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple


class SpanRecorder:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured by the caller (e.g. the import)."""
        self.name_id.append(self.intern(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Return ``fn`` wrapped so every call records a span called ``name``."""
        nid = self.intern(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[stack.pop()] = clock()

        return traced

    def dispatcher(self) -> Callable[..., Any]:
        """A trampoline ``dispatch(name_id, callback, *args)`` for event callbacks.

        Scheduling ``dispatch`` with the callback's span id in front of its
        arguments attributes the callback without allocating a closure per
        event.
        """
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def dispatch(nid, callback, *args):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                callback(*args)
            finally:
                ends[stack.pop()] = clock()

        return dispatch

    def open_spans(self) -> int:
        """Spans started but not yet ended (0 once the run is over)."""
        return len(self._stack) - 1

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    def summary(self) -> Tuple[Dict[str, Tuple[int, float, float]], float]:
        """Per span name: (calls, self seconds, total seconds); plus covered time.

        Covered time is the summed duration of the top-level spans, i.e. the
        part of the run that some span accounts for.
        """
        import numpy as np

        n = len(self.start)
        if n == 0:
            return {}, 0.0
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        self_time = duration - child_time
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_by_name = np.bincount(nid, weights=self_time, minlength=k)
        total_by_name = np.bincount(nid, weights=duration, minlength=k)
        out = {
            name: (int(calls[i]), float(self_by_name[i]), float(total_by_name[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }
        return out, float(duration[~nested].sum())

    def save(self, path) -> None:
        """Write every span (name table, ids, parents, start/end) as ``.npz``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
