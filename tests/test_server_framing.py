"""Wire framing under arbitrary TCP segmentation.

The server's bytes reach the client over a socketpair cut at random points,
for every client operation: frames that share one ``recv`` or straddle
several must all arrive, in order.  The same holds for the server's request
reader (:func:`repro.server.protocol.read_frame`).
"""

from __future__ import annotations

import asyncio
import socket
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.client import Client
from repro.server.protocol import encode, read_frame

JOB = {"job_id": "j1", "state": "done", "done_trials": 2, "total_trials": 2}

#: Client call, the server's response frames, and what the call returns.
OPS = {
    "ping": (lambda c: c.ping(), [{"ok": True, "pong": 1}], lambda f: f[0]),
    "submit": (lambda c: c.submit(params={"scenario": "office"}, seeds=[0, 1]),
               [{"ok": True, "job_id": "j1", "cached": False}], lambda f: f[0]),
    "status": (lambda c: c.status("j1"), [{"ok": True, "job": JOB}],
               lambda f: f[0]["job"]),
    "jobs": (lambda c: c.jobs(), [{"ok": True, "jobs": [JOB, dict(JOB, job_id="j2")]}],
             lambda f: f[0]["jobs"]),
    "result": (lambda c: c.result("j1"),
               [{"ok": True, "results": [{"seed": 0, "x": 0.25}, {"seed": 1, "x": 1.5}]}],
               lambda f: f[0]),
    "cancel": (lambda c: c.cancel("j1"), [{"ok": True, "state": "cancelled"}],
               lambda f: f[0]),
    "stats": (lambda c: c.stats(), [{"ok": True, "counters": {"server.jobs": 3}}],
              lambda f: f[0]),
    "shutdown": (lambda c: c.shutdown(), [{"ok": True, "draining": True}],
                 lambda f: f[0]),
    "watch": (lambda c: list(c.watch("j1")),
              [{"ok": True, "job_id": "j1"},
               {"type": "snapshot", "done_trials": 1, "total_trials": 2},
               {"type": "snapshot", "done_trials": 2, "total_trials": 2},
               {"type": "end", "state": "done"}],
              lambda f: f[1:]),
}


def _pieces(payload: bytes, cuts) -> list:
    """``payload`` cut at the given offsets (in any order, repeats allowed)."""
    edges = sorted({0, len(payload), *(c % (len(payload) + 1) for c in cuts)})
    return [payload[a:b] for a, b in zip(edges, edges[1:])]


def _serve(sock: socket.socket, pieces) -> None:
    """Read one request line, answer in ``pieces``, then close."""
    with sock, sock.makefile("rb") as requests:
        requests.readline()
        for piece in pieces:
            sock.sendall(piece)


class _PairClient(Client):
    """A client whose every connection is one end of a fresh socketpair."""

    def __init__(self, pieces):
        super().__init__(port=1, timeout=5.0)
        self.pieces = pieces
        self.threads = []

    def _connect(self) -> socket.socket:
        ours, theirs = socket.socketpair()
        ours.settimeout(self.timeout)
        thread = threading.Thread(target=_serve, args=(theirs, self.pieces))
        thread.start()
        self.threads.append(thread)
        return ours


@settings(max_examples=40, deadline=None)
@given(op=st.sampled_from(sorted(OPS)),
       cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12))
def test_client_reads_every_frame_under_random_splits(op, cuts):
    call, frames, expected = OPS[op]
    client = _PairClient(_pieces(b"".join(encode(f) for f in frames), cuts))
    assert call(client) == expected(frames)
    for thread in client.threads:
        thread.join(timeout=5.0)


def test_watch_of_frames_sharing_one_recv():
    """The ack, a snapshot and ``end`` in a single segment all arrive."""
    call, frames, expected = OPS["watch"]
    client = _PairClient([b"".join(encode(f) for f in frames)])
    assert call(client) == expected(frames)


@settings(max_examples=40, deadline=None)
@given(request=st.fixed_dictionaries({
           "op": st.sampled_from(["submit", "status", "watch"]),
           "job_id": st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
           "seeds": st.lists(st.integers(0, 10**6), max_size=8)}),
       cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12))
def test_server_reads_a_request_under_random_splits(request, cuts):
    pieces = _pieces(encode(request), cuts)

    async def receive():
        ours, theirs = socket.socketpair()
        with theirs:
            reader, writer = await asyncio.open_connection(sock=ours)
            sender = threading.Thread(
                target=lambda: [theirs.sendall(piece) for piece in pieces]
            )
            sender.start()
            try:
                return await read_frame(reader)
            finally:
                sender.join(timeout=5.0)
                writer.close()

    assert asyncio.run(receive()) == request
