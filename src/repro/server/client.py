"""Thin synchronous client for the job server (stdlib ``socket`` only).

One request per connection keeps the client trivial — no multiplexing, no
background threads; ``watch`` simply holds its connection open and yields
telemetry frames as the server pushes them.  Every connection reads through
one buffered line reader, so frames that share a ``recv`` (or straddle
two) are all delivered.  Discover a server either by
``(host, port)`` or from the ``server.json`` the server writes into its
state directory::

    from repro.api import Client

    client = Client.from_state_dir("~/.cache/bicord/server")
    job = client.submit(params={"scenario": "office"}, seeds=[0, 1])
    for frame in client.watch(job["job_id"]):
        print(frame["done_trials"], "/", frame["total_trials"])
    rows = client.result(job["job_id"])["results"]
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Union

from .jobs import JobState
from .protocol import MAX_LINE_BYTES


class ServerError(RuntimeError):
    """The server answered ``ok: false``; carries the response payload."""

    def __init__(self, payload: Mapping[str, Any]):
        super().__init__(str(payload.get("error", "server error")))
        self.payload = dict(payload)

    @property
    def retry_after(self) -> Optional[float]:
        """Backpressure hint, when the rejection carried one."""
        value = self.payload.get("retry_after")
        return float(value) if value is not None else None


class Client:
    """Submit/status/result/cancel/watch against one running server."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0,
        timeout: float = 30.0, client_name: str = "",
    ):
        if port <= 0:
            raise ValueError(f"port must be positive, got {port}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.client_name = client_name or f"pid{os.getpid()}"

    @classmethod
    def from_state_dir(
        cls, state_dir: Union[str, Path], timeout: float = 30.0,
        client_name: str = "", retry_for: float = 0.0,
    ) -> "Client":
        """Connect via the ``server.json`` a server wrote at startup.

        ``retry_for`` polls for the discovery file up to that many seconds
        — handy right after spawning a server process.
        """
        path = Path(state_dir).expanduser() / "server.json"
        deadline = time.monotonic() + retry_for
        while True:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                return cls(
                    host=payload["host"], port=int(payload["port"]),
                    timeout=timeout, client_name=client_name,
                )
            except (OSError, ValueError, KeyError):
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"no server discovery file at {path}"
                    ) from None
                time.sleep(0.05)

    # -- plumbing --------------------------------------------------------
    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._connect() as conn:
            conn.sendall(
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            )
            response = _LineReader(conn).read()
        if response is None:
            raise ConnectionError("server closed the connection mid-response")
        if not response.get("ok", False):
            raise ServerError(response)
        return response

    # -- operations ------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self._request({"op": "ping"})

    def submit(
        self,
        experiment: str = "scenario",
        params: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        seeds: Sequence[int] = (0,),
        priority: int = 1,
    ) -> Dict[str, Any]:
        """Submit a job; raises :class:`ServerError` on rejection.

        A full-queue rejection's error carries ``retry_after`` — catch it
        and honor the hint rather than hammering the server.
        """
        return self._request({
            "op": "submit",
            "spec": {
                "experiment": experiment,
                "params": dict(params or {}),
                "grid": {k: list(v) for k, v in dict(grid or {}).items()},
                "seeds": [int(s) for s in seeds],
                "priority": int(priority),
                "client": self.client_name,
            },
        })

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "status", "job_id": job_id})["job"]

    def jobs(self) -> Sequence[Dict[str, Any]]:
        return self._request({"op": "jobs"})["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "result", "job_id": job_id})

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "cancel", "job_id": job_id})

    def stats(self) -> Dict[str, Any]:
        return self._request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain (same path as SIGTERM)."""
        return self._request({"op": "shutdown"})

    def watch(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield telemetry frames until the job reaches a terminal state.

        Frames are the server's ND-JSON snapshots (``type: "snapshot"``);
        the closing ``type: "end"`` frame is yielded too, so consumers see
        the final state without a second ``status`` call.
        """
        with self._connect() as conn:
            conn.sendall(
                (json.dumps({"op": "watch", "job_id": job_id}) + "\n")
                .encode("utf-8")
            )
            reader = _LineReader(conn)
            ack = reader.read()
            if ack is None:
                raise ConnectionError("server closed the connection mid-response")
            if not ack.get("ok", False):
                raise ServerError(ack)
            while True:
                frame = reader.read()
                if frame is None:
                    return
                yield frame
                if frame.get("type") == "end":
                    return

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.1,
    ) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] in JobState.TERMINAL:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(poll)


class _LineReader:
    """Newline-delimited JSON frames from one blocking socket.

    One ``recv`` may carry several frames (a finished job's watch ack,
    snapshot and ``end`` frame arrive back to back) or a piece of one; the
    buffer keeps every byte after the returned line for the next read.
    """

    def __init__(self, conn: socket.socket):
        self._conn = conn
        self._buffer = b""

    def read(self) -> Optional[Dict[str, Any]]:
        """The next non-blank frame, or None once the server closed."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                raw = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1:]
                if raw.strip():
                    return json.loads(raw.decode("utf-8"))
                continue
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ConnectionError("response line too long")
            chunk = self._conn.recv(65536)
            if not chunk:
                return None
            self._buffer += chunk
