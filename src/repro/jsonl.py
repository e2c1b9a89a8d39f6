"""Append-only JSONL journals that survive torn writes.

A journal holds one JSON object per line.  Every append writes the whole
line, then flushes and fsyncs, so after a kill each line either exists
completely (newline-terminated) or is the unterminated tail the kill
interrupted.  Reading skips that tail.  The first append after reopening
cuts it off, so the new record starts a line of its own instead of being
glued onto the fragment (which would make it unreadable too).

The campaign journal (:mod:`repro.experiments.campaign`) and the job
server's journal (:mod:`repro.server.journal`) both build on this class.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator


def _cut_torn_tail(path: Path) -> None:
    """Truncate ``path`` after its last newline (no-op if it ends in one).

    Reads the whole file, as replaying the journal on restart does anyway.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        with open(path, "rb+") as handle:
            handle.truncate(keep)
            os.fsync(handle.fileno())


class JsonlJournal:
    """An fsync'd, append-only JSONL file."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._handle = None

    def append(self, record: Dict[str, Any]) -> None:
        """Write ``record`` as one durable line."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _cut_torn_tail(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def records(self) -> Iterator[Dict[str, Any]]:
        """Every complete line that parses to an object, in file order."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    return  # the torn tail of an interrupted append
                try:
                    record = json.loads(raw)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record
