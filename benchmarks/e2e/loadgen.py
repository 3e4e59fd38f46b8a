"""The benchmark's own HTTP load generator (open and closed loop).

One process, one shared dispatch cursor, and at most ``min(nproc, 4)``
keep-alive connections, each owned by one sender thread.  It is kept
apart from ``repro.replay.driver`` on purpose: that is program code a
later change may alter, and the instrument must not move with the thing
it measures.

**Open loop** — every request has a due time fixed before the run
(Poisson arrivals from the workload seed).  A sender takes the next
request from the cursor, sleeps until it is due, sends it, and waits
for the reply.  Latency is charged from the *due* time, so when every
connection is still busy the wait a stall imposes on later requests is
counted.  How late the generator itself ran — send time minus the later
of (due time, the moment a connection was free) — is reported as the
generator lag.

**Closed loop** — each connection sends its next request as soon as the
previous reply is read; latency is charged from the send.

The client speaks just enough HTTP/1.1 over a raw socket to keep its
own cost per request far below the server's.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter

MAX_CONNECTIONS = 4


def usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def connection_cap() -> int:
    return max(1, min(usable_cpus(), MAX_CONNECTIONS))


def encode_request(path: str, body: bytes) -> Tuple[bytes, bytes]:
    """(head without the final blank line, body) of one POST.  The
    server does not look at ``Host``, so requests are encoded once,
    before the address they go to is known."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: repro-bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    ).encode("ascii")
    return head, body


class Connection:
    """One keep-alive HTTP/1.1 connection over a raw socket."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.address = (host, port)
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(
        self, head: bytes, body: bytes, request_id: Optional[int] = None
    ) -> Tuple[int, bytes]:
        """Send one request; (status, response body).  Status 0 means
        the exchange failed below HTTP (reset, timeout)."""
        extra = (
            b"X-Request-Id: %d\r\n\r\n" % request_id
            if request_id is not None
            else b"\r\n"
        )
        try:
            sock = self.sock or self._connect()
            sock.sendall(head + extra + body)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("closed mid-response")
                data += chunk
            header, _, rest = data.partition(b"\r\n\r\n")
            status = int(header[9:12])
            length = 0
            for line in header.split(b"\r\n")[1:]:
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            while len(rest) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("closed mid-body")
                rest += chunk
            if b"connection: close" in header.lower():
                self.close()
            return status, rest
        except (OSError, ValueError):
            self.close()
            return 0, b""


@dataclass
class PhaseResult:
    """Everything one phase sent and got back, in due/send order."""

    name: str
    mode: str  # "open" | "closed"
    connections: int
    seconds: float
    started: float
    index: np.ndarray  # which input each request carried
    slot: np.ndarray  # which connection carried it
    due: np.ndarray
    free: np.ndarray  # when its connection was ready for it
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    request_ids: np.ndarray  # -1 when the pass is untraced
    bodies: List[bytes]

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        """How late the generator sent, beyond what the schedule and a
        busy connection explain."""
        return (self.sent - np.maximum(self.due, self.free)) * 1e3

    @property
    def offered_qps(self) -> float:
        return len(self.index) / self.seconds


def _run_senders(connections: int, target) -> None:
    threads = [
        threading.Thread(target=target, args=(i,), daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_open(
    name: str,
    host: str,
    port: int,
    requests: Sequence[Tuple[bytes, bytes]],
    indices: np.ndarray,
    offsets: np.ndarray,
    seconds: float,
    connections: Optional[int] = None,
    ids: Optional[Iterator[int]] = None,
) -> PhaseResult:
    """Fire ``requests[indices[k]]`` at ``start + offsets[k]``.

    *ids*, when given, numbers the requests (sent as ``X-Request-Id``)
    so a traced server can tie its spans to them.
    """
    connections = min(connections or connection_cap(), connection_cap())
    count = len(indices)
    slot = np.zeros(count, dtype=np.int64)
    due, free, sent, done = (np.zeros(count) for _ in range(4))
    status = np.zeros(count, dtype=np.int64)
    request_ids = np.full(count, -1, dtype=np.int64)
    bodies: List[bytes] = [b""] * count
    cursor = iter(range(count))  # next() on a range iterator is atomic
    pool = [Connection(host, port) for _ in range(connections)]
    start = clock() + 0.02

    def sender(me: int) -> None:
        conn = pool[me]
        for k in cursor:
            slot[k] = me
            free[k] = now = clock()
            due[k] = start + offsets[k]
            if due[k] > now:
                time.sleep(due[k] - now)
            head, body = requests[indices[k]]
            request_id = next(ids) if ids is not None else None
            sent[k] = clock()
            status[k], bodies[k] = conn.request(head, body, request_id)
            done[k] = clock()
            if request_id is not None:
                request_ids[k] = request_id

    _run_senders(connections, sender)
    for conn in pool:
        conn.close()
    return PhaseResult(
        name, "open", connections, seconds, start, np.asarray(indices),
        slot, due, free, sent, done, status, request_ids, bodies,
    )


def run_closed(
    name: str,
    host: str,
    port: int,
    requests: Sequence[Tuple[bytes, bytes]],
    indices: np.ndarray,
    seconds: float,
    connections: Optional[int] = None,
    ids: Optional[Iterator[int]] = None,
) -> PhaseResult:
    """Each connection sends back-to-back for *seconds*, walking
    *indices* (cyclically) from its own offset."""
    connections = min(connections or connection_cap(), connection_cap())
    pool = [Connection(host, port) for _ in range(connections)]
    records: List[list] = [[] for _ in range(connections)]
    start = clock()
    deadline = start + seconds
    stride = max(len(indices) // connections, 1)

    def sender(me: int) -> None:
        conn = pool[me]
        position = me * stride
        while True:
            begun = clock()
            if begun >= deadline:
                return
            index = int(indices[position % len(indices)])
            position += 1
            head, body = requests[index]
            request_id = next(ids) if ids is not None else None
            state, payload = conn.request(head, body, request_id)
            records[me].append(
                (begun, index, me, clock(), state,
                 -1 if request_id is None else request_id, payload)
            )

    _run_senders(connections, sender)
    for conn in pool:
        conn.close()
    rows = sorted(r for record in records for r in record)
    sent = np.array([r[0] for r in rows])
    return PhaseResult(
        name, "closed", connections, seconds, start,
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.int64),
        sent, sent, sent,
        np.array([r[3] for r in rows]),
        np.array([r[4] for r in rows], dtype=np.int64),
        np.array([r[5] for r in rows], dtype=np.int64),
        [r[6] for r in rows],
    )


def poisson_offsets(
    rng: np.random.Generator, rate_qps: float, seconds: float
) -> np.ndarray:
    """Arrival offsets of a Poisson process over [0, seconds)."""
    gaps = rng.exponential(1.0 / rate_qps, int(rate_qps * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]
