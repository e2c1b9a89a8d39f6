"""Fsync'd JSONL job journal: the server's crash-safe state record.

The campaign journal idea applied to server state: line 1 is a header
(schema, code version, pid), every further line is one job-state change,
last-wins per ``job_id``.  Appends flush + fsync, so after ``kill -9`` a
line either exists completely or not at all; a torn trailing line is
ignored on read and cut off before the next append (see
:mod:`repro.jsonl`).

Replay semantics on restart: jobs whose last journaled state is
``queued`` *or* ``running`` come back as queued — a running job's
completed trials already landed in the content-addressed sweep cache, so
re-running it re-executes only the trial the kill interrupted.  Terminal
jobs (done/failed/cancelled) are replayed into the record table so
``status``/``result`` keep answering for them across restarts.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__ as _CODE_VERSION
from ..jsonl import JsonlJournal
from ..log import get_logger
from .jobs import JobRecord, JobState

#: Journal layout version; a mismatch starts a fresh journal.
SERVER_SCHEMA = 1

_LOG = get_logger("server.journal")


class ServerJournal(JsonlJournal):
    """Append-only JSONL record of every job the server has accepted."""

    # -- writing -------------------------------------------------------
    def write_header(self) -> None:
        self.append({
            "kind": "header",
            "schema": SERVER_SCHEMA,
            "code": _CODE_VERSION,
            "pid": os.getpid(),
        })

    def record_job(self, record: JobRecord) -> None:
        """Persist a job's current state (called on every transition)."""
        self.append({"kind": "job", **record.to_wire()})

    # -- reading -------------------------------------------------------
    def read(self) -> Tuple[Optional[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
        """(header, {job_id: last job line}) — torn trailing line tolerated."""
        header: Optional[Dict[str, Any]] = None
        jobs: Dict[str, Dict[str, Any]] = {}
        for line in self.records():
            if line.get("kind") == "header":
                header = line
            elif line.get("kind") == "job" and "job_id" in line:
                jobs[str(line["job_id"])] = line
        return header, jobs

    def replay(self) -> List[JobRecord]:
        """Typed records to restore, interrupted work demoted to queued.

        An incompatible schema (or unreadable journal) replays nothing —
        the server starts fresh rather than guessing at old state.
        """
        header, lines = self.read()
        if header is not None and header.get("schema") != SERVER_SCHEMA:
            _LOG.warning(
                "journal %s has schema %r != %d; starting fresh",
                self.path, header.get("schema"), SERVER_SCHEMA,
            )
            return []
        records: List[JobRecord] = []
        for line in lines.values():
            try:
                record = JobRecord.from_wire(line)
            except (KeyError, TypeError, ValueError):
                continue
            if record.state in (JobState.QUEUED, JobState.RUNNING):
                # The drain (or crash) interrupted it: back to the queue.
                record.state = JobState.QUEUED
                record.started_at = None
            records.append(record)
        records.sort(key=lambda r: r.submitted_at)
        return records
