"""The asyncio job server: accept, schedule, execute, stream, drain.

One event loop owns all bookkeeping (records, queue, watchers); simulation
trials execute in a bounded :class:`ProcessPoolExecutor` via
``run_in_executor`` using the sweep engine's ``_execute_trial`` — the same
worker entry point sweeps and campaigns use, so a trial behaves (and
caches) identically whether it came from a CLI sweep or a server job.

Scheduling: the dispatcher acquires a worker *slot* before pulling from
the queue, so priority and fairness are applied at the moment a slot frees
up, not at submission.  A job occupies one slot for its whole trial list
(trials run sequentially within a job; concurrency comes from concurrent
jobs), which keeps per-job telemetry coherent and makes the concurrent-run
ceiling exactly ``workers``.

The content-addressed sweep cache is the result store.  ``submit`` checks
every trial key first and completes the job on the spot when all are
cached (never touching the queue or a worker slot — the pool is not even
spawned until the first real trial); ``result`` answers purely from the
cache, so results survive restarts for free.

Drain: SIGTERM (or the ``shutdown`` op) stops intake, lets in-flight jobs
finish up to ``drain_grace`` seconds, then journals interrupted and queued
jobs as ``queued`` — the next server start replays them, and their
completed trials are cache hits.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from ..experiments.registry import get_experiment
from ..experiments.sweep import SweepEngine, _execute_trial
from ..log import get_logger
from ..telemetry import MetricsRegistry
from .jobs import JobRecord, JobSpec, JobState
from .journal import ServerJournal
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    error,
    ok,
    read_frame,
    write_frame,
)
from .queue import FairPriorityQueue, QueueFull

_LOG = get_logger("server")


@dataclass
class ServerConfig:
    """Everything a :class:`JobServer` needs to run."""

    #: Journal, discovery file, and (by default) the cache live here.
    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in server.json
    workers: int = 2
    queue_depth: int = 16
    cache_dir: Optional[os.PathLike] = None
    #: Seconds between telemetry frames pushed to ``watch`` streams.
    snapshot_interval: float = 0.5
    #: Seconds SIGTERM waits for in-flight jobs before journaling them
    #: back to queued.
    drain_grace: float = 30.0

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )

    @property
    def discovery_path(self) -> Path:
        return self.state_dir / "server.json"

    @property
    def journal_path(self) -> Path:
        return self.state_dir / "jobs.jsonl"


class JobServer:
    """A single-process coordination service over the simulation cache."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.engine = SweepEngine(cache_dir=config.cache_dir)
        self.queue = FairPriorityQueue(config.queue_depth)
        self.journal = ServerJournal(config.journal_path)
        self.records: Dict[str, JobRecord] = {}
        self.metrics = MetricsRegistry()
        self._counter = 0
        self._running: Dict[str, asyncio.Task] = {}
        self._cancel_requested: Set[str] = set()
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._slots = asyncio.Semaphore(config.workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        self._shutdown = asyncio.Event()
        self._draining = False
        #: EWMA of executed-trial wall seconds — the retry-after estimator.
        self._trial_ewma = 1.0
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(self) -> None:
        """Run until drained: ``start`` + wait for SIGTERM/shutdown."""
        await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()

    async def start(self) -> None:
        """Bind, replay the journal, and spawn the service tasks."""
        self.config.state_dir.mkdir(parents=True, exist_ok=True)
        restored = self.journal.replay()
        for record in restored:
            self.records[record.job_id] = record
            self._counter = max(self._counter, _counter_of(record.job_id))
            if record.state == JobState.QUEUED:
                # Previously-accepted work is never re-rejected: replay
                # bypasses the depth bound.
                self.queue.put(record, force=True)
        self.journal.write_header()

        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._write_discovery()
        self._install_signal_handlers()

        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._dispatch(), name="dispatcher"),
            loop.create_task(self._broadcast(), name="broadcaster"),
        ]
        _LOG.info(
            "serving on %s:%d (workers=%d, queue_depth=%d, %d job(s) replayed)",
            self.config.host, self.port, self.config.workers,
            self.config.queue_depth, len(restored),
        )

    def initiate_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        if not self._draining:
            self._draining = True
            _LOG.info("drain initiated: rejecting new submissions")
        self._shutdown.set()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.initiate_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread (tests) or platforms without signal
                # support in the loop: the shutdown op still drains.
                return

    async def _drain(self) -> None:
        """Stop intake, grace-wait in-flight jobs, journal the rest."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        if self._running:
            _LOG.info(
                "draining: waiting up to %.1fs for %d in-flight job(s)",
                self.config.drain_grace, len(self._running),
            )
            done, pending = await asyncio.wait(
                set(self._running.values()), timeout=self.config.drain_grace
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Journal survivors: anything not terminal goes back to queued so
        # the next start replays it; its finished trials are cache hits.
        interrupted = 0
        for record in self.records.values():
            if not record.terminal:
                record.state = JobState.QUEUED
                record.started_at = None
                self.journal.record_job(record)
                interrupted += 1
        if interrupted:
            _LOG.info("journaled %d interrupted job(s) as queued", interrupted)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self.journal.close()
        try:
            self.config.discovery_path.unlink()
        except OSError:
            pass
        _LOG.info("drained; exiting")

    def _write_discovery(self) -> None:
        payload = {
            "host": self.config.host,
            "port": self.port,
            "pid": os.getpid(),
            "started_at": time.time(),
        }
        tmp = self.config.discovery_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.config.discovery_path)

    def _get_pool(self) -> ProcessPoolExecutor:
        # Lazy: a server that only ever answers from cache never forks.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
            self.metrics.counter("server.pool_spawned").inc()
        return self._pool

    # ------------------------------------------------------------------
    # Scheduling + execution
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """Single consumer: slot first, then queue — so priority applies
        at the moment a worker frees up, not at submission time."""
        loop = asyncio.get_running_loop()
        while True:
            await self._slots.acquire()
            record = await self.queue.get()
            if record.job_id in self._cancel_requested:
                self._cancel_requested.discard(record.job_id)
                record.transition(JobState.CANCELLED)
                self.journal.record_job(record)
                self._notify(record, end=True)
                self._slots.release()
                continue
            task = loop.create_task(
                self._run_job(record), name=f"job:{record.job_id}"
            )
            self._running[record.job_id] = task

    async def _run_job(self, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        spec = record.spec
        try:
            record.transition(JobState.RUNNING)
            record.done_trials = 0
            record.cached_hits = 0
            self.journal.record_job(record)
            self._notify(record)

            exp = get_experiment(spec.experiment)
            pairs = spec.trials()
            keys = spec.trial_keys()
            record.total_trials = len(pairs)
            for (params, seed), key in zip(pairs, keys):
                if record.job_id in self._cancel_requested:
                    self._cancel_requested.discard(record.job_id)
                    record.transition(JobState.CANCELLED)
                    break
                hit = self.engine._cache_load(key, exp.result_cls)
                if hit is not None:
                    record.cached_hits += 1
                    record.done_trials += 1
                    self.metrics.counter("server.trials_cached").inc()
                    continue
                result, elapsed, _snapshot = await loop.run_in_executor(
                    self._get_pool(), _execute_trial,
                    spec.experiment, params, seed, None, False,
                )
                self.engine._cache_store(
                    key, spec.experiment, params, seed, result, elapsed
                )
                record.done_trials += 1
                self.metrics.counter("server.trials_executed").inc()
                self.metrics.histogram(
                    "server.trial_seconds",
                    bounds=(0.01, 0.1, 1.0, 10.0, 60.0),
                ).observe(elapsed)
                self._trial_ewma = 0.3 * elapsed + 0.7 * self._trial_ewma
            else:
                record.transition(JobState.DONE)
        except asyncio.CancelledError:
            # Drain cancelled us mid-trial; _drain journals the record
            # back to queued — swallow so the gather in _drain completes.
            return
        except Exception as exc:  # noqa: BLE001 — job failure is data
            _LOG.warning("job %s failed: %s", record.job_id, exc)
            record.error = f"{type(exc).__name__}: {exc}"
            record.transition(JobState.FAILED)
            self.metrics.counter("server.jobs_failed").inc()
        finally:
            if record.terminal:
                self.journal.record_job(record)
                self._notify(record, end=True)
                self.metrics.counter(f"server.jobs_{record.state}").inc()
            self._running.pop(record.job_id, None)
            self._slots.release()

    # ------------------------------------------------------------------
    # Telemetry streaming
    # ------------------------------------------------------------------
    def _snapshot_frame(self, record: JobRecord) -> Dict[str, Any]:
        elapsed = 0.0
        if record.started_at is not None:
            end = record.finished_at or time.time()
            elapsed = max(0.0, end - record.started_at)
        return {
            "type": "snapshot",
            "job_id": record.job_id,
            "state": record.state,
            "done_trials": record.done_trials,
            "total_trials": record.total_trials,
            "cached_hits": record.cached_hits,
            "elapsed": round(elapsed, 6),
            "queue_depth": self.queue.depth,
        }

    def _notify(self, record: JobRecord, end: bool = False) -> None:
        """Push a snapshot (and optionally the end frame) to watchers."""
        queues = self._watchers.get(record.job_id, [])
        if not queues:
            return
        frame = self._snapshot_frame(record)
        for queue in queues:
            queue.put_nowait(frame)
            if end:
                queue.put_nowait({
                    "type": "end",
                    "job_id": record.job_id,
                    "state": record.state,
                })

    async def _broadcast(self) -> None:
        """Periodic snapshots for running jobs with live watchers."""
        while True:
            await asyncio.sleep(self.config.snapshot_interval)
            for job_id in list(self._watchers):
                record = self.records.get(job_id)
                if record is not None and not record.terminal:
                    self._notify(record)

    # ------------------------------------------------------------------
    # Protocol handlers
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_frame(reader)
            except ProtocolError as exc:
                await write_frame(writer, error(str(exc)))
                return
            op = request.get("op")
            if op == "watch":
                await self._handle_watch(request, writer)
                return
            handler = {
                "ping": self._op_ping,
                "submit": self._op_submit,
                "status": self._op_status,
                "jobs": self._op_jobs,
                "result": self._op_result,
                "cancel": self._op_cancel,
                "stats": self._op_stats,
                "shutdown": self._op_shutdown,
            }.get(op)
            if handler is None:
                await write_frame(writer, error(f"unknown op {op!r}"))
                return
            try:
                response = handler(request)
            except Exception as exc:  # noqa: BLE001 — answer, don't die
                _LOG.warning("op %s failed: %s", op, exc)
                response = error(f"{type(exc).__name__}: {exc}")
            await write_frame(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Drain cancels in-flight connection tasks (watchers parked on
            # a frame queue, mid-read requests).  Swallowing here keeps the
            # CancelledError out of asyncio's connection_made callback,
            # which would print a spurious traceback during shutdown.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from .. import __version__

        return ok(
            pid=os.getpid(),
            state="draining" if self._draining else "serving",
            version=__version__,
        )

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            return error(
                "server is draining; resubmit after restart",
                retry_after=self.config.drain_grace,
            )
        spec = JobSpec.from_wire(request.get("spec", {}))
        get_experiment(spec.experiment)  # unknown name -> clean error
        self.metrics.counter("server.submissions").inc()
        fingerprint = spec.fingerprint()

        # Idempotent resubmission: the same work already queued/running
        # attaches to the existing job instead of double-executing.
        for existing in self.records.values():
            if existing.fingerprint == fingerprint and not existing.terminal:
                self.metrics.counter("server.deduplicated").inc()
                return ok(
                    job_id=existing.job_id, state=existing.state,
                    cached=False, deduplicated=True,
                )

        exp = get_experiment(spec.experiment)
        keys = spec.trial_keys()
        record = JobRecord(
            job_id=self._next_job_id(fingerprint),
            spec=spec,
            fingerprint=fingerprint,
            total_trials=len(keys),
        )

        # Cache-hit fast path: every trial already has a cached result —
        # the job completes right here, no queue, no worker slot, and the
        # process pool is never even spawned for it.
        if all(self.engine.cache_has(key, exp.result_cls) for key in keys):
            record.from_cache = True
            record.cached_hits = len(keys)
            record.done_trials = len(keys)
            record.transition(JobState.DONE)
            self.records[record.job_id] = record
            self.journal.record_job(record)
            self.metrics.counter("server.cache_hit_jobs").inc()
            return ok(job_id=record.job_id, state=record.state, cached=True)

        retry_after = self._retry_after(extra_trials=len(keys))
        try:
            self.queue.put(record, retry_after=retry_after)
        except QueueFull as exc:
            self.metrics.counter("server.rejections").inc()
            return error(
                "queue full", retry_after=round(exc.retry_after, 3),
                depth=exc.depth,
            )
        self.records[record.job_id] = record
        self.journal.record_job(record)
        return ok(job_id=record.job_id, state=record.state, cached=False)

    def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self.records.get(str(request.get("job_id")))
        if record is None:
            return error(f"unknown job {request.get('job_id')!r}")
        return ok(job=record.to_wire())

    def _op_jobs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok(jobs=[
            record.to_wire()
            for record in sorted(
                self.records.values(), key=lambda r: r.submitted_at
            )
        ])

    def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self.records.get(str(request.get("job_id")))
        if record is None:
            return error(f"unknown job {request.get('job_id')!r}")
        if record.state != JobState.DONE:
            return error(
                f"job {record.job_id} is {record.state}, not done",
                state=record.state,
            )
        exp = get_experiment(record.spec.experiment)
        results = []
        for (params, seed), key in zip(
            record.spec.trials(), record.spec.trial_keys()
        ):
            hit = self.engine._cache_load(key, exp.result_cls)
            if hit is None:
                return error(
                    f"trial {key[:12]} missing from cache (cleared since "
                    "the job ran?); resubmit the job"
                )
            result, elapsed, _metrics = hit
            results.append({
                "params": dict(params),
                "seed": seed,
                "key": key,
                "elapsed": elapsed,
                "metrics": _metrics_of(result),
            })
        return ok(
            job_id=record.job_id, experiment=record.spec.experiment,
            results=results,
        )

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self.records.get(str(request.get("job_id")))
        if record is None:
            return error(f"unknown job {request.get('job_id')!r}")
        if record.terminal:
            return error(
                f"job {record.job_id} already {record.state}",
                state=record.state,
            )
        if record.state == JobState.QUEUED:
            self.queue.remove(record.job_id)
            record.transition(JobState.CANCELLED)
            self.journal.record_job(record)
            self._notify(record, end=True)
            self.metrics.counter("server.jobs_cancelled").inc()
            return ok(job_id=record.job_id, state=record.state)
        # Running: the flag is honored between trials (the executing trial
        # cannot be interrupted; at most one trial of work is discarded).
        self._cancel_requested.add(record.job_id)
        self.metrics.counter("server.cancel_requested").inc()
        return ok(job_id=record.job_id, state=record.state, cancelling=True)

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        return ok(
            queued=self.queue.depth,
            queued_trials=self.queue.queued_trials(),
            running=len(self._running),
            workers=self.config.workers,
            queue_depth_bound=self.config.queue_depth,
            draining=self._draining,
            trial_seconds_ewma=round(self._trial_ewma, 6),
            counters=snapshot.get("counters", {}),
        )

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.initiate_drain()
        return ok(state="draining")

    async def _handle_watch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        record = self.records.get(str(request.get("job_id")))
        if record is None:
            await write_frame(
                writer, error(f"unknown job {request.get('job_id')!r}")
            )
            return
        await write_frame(writer, ok(job_id=record.job_id))
        await write_frame(writer, self._snapshot_frame(record))
        if record.terminal:
            await write_frame(writer, {
                "type": "end", "job_id": record.job_id, "state": record.state,
            })
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(record.job_id, []).append(queue)
        try:
            while True:
                frame = await queue.get()
                await write_frame(writer, frame)
                if frame.get("type") == "end":
                    return
        except (ConnectionError, OSError):
            pass  # watcher went away mid-stream
        finally:
            lanes = self._watchers.get(record.job_id, [])
            if queue in lanes:
                lanes.remove(queue)
            if not lanes:
                self._watchers.pop(record.job_id, None)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _next_job_id(self, fingerprint: str) -> str:
        self._counter += 1
        return f"j{self._counter:05d}-{fingerprint[:10]}"

    def _retry_after(self, extra_trials: int = 0) -> float:
        backlog = self.queue.queued_trials() + extra_trials
        return max(
            0.1, backlog * self._trial_ewma / max(1, self.config.workers)
        )


def _counter_of(job_id: str) -> int:
    """The monotonic counter embedded in a job id (0 if unparseable)."""
    try:
        return int(job_id.split("-", 1)[0].lstrip("j"))
    except ValueError:
        return 0


def _metrics_of(result: Any) -> Dict[str, float]:
    """A result's flat numeric metrics (shared with the campaign runner)."""
    from ..experiments.campaign import _metrics_of as impl

    return impl(result)
