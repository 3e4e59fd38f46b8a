"""Open-loop trace replay against a live ``repro serve`` endpoint.

Closed-loop load generators wait for each response before sending the
next request, so an overloaded server quietly slows the generator down
and the measured latency looks fine (coordinated omission).  This
driver is **open-loop**: a schedule thread releases every
:class:`~repro.replay.trace.TraceEvent` at exactly ``t0 + offset``,
whatever the server is doing, and a pool of keep-alive worker
connections drains the released queue.  Latency is charged from the
*scheduled* time, so time spent waiting for a free connection — the
signature of an overloaded server — shows up in p99 instead of
disappearing.

Per-request behavior:

- **deadline**: a request that cannot complete within ``deadline_s`` of
  its scheduled arrival is abandoned (status 0, ``deadline_missed``);
- **Retry-After**: a 429 is retried after the server's advertised
  backoff (the JSON ``retry_after_s`` field, falling back to the
  header) while the deadline allows — honoring the hint the scheduler
  derives from queue depth / drain rate, instead of a fixed client-side
  constant that re-synchronizes the stampede;
- **transport errors** count as errors (status 0) and the connection is
  re-established for the next request — a dropped socket is an SLO
  violation, not an excuse.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.client import HTTPConnection
from typing import List, Optional, Tuple

from repro.replay.slo import RequestOutcome, SLOReport, build_report
from repro.replay.trace import Trace, TraceEvent


class _Client:
    """One keep-alive connection with JSON POST + reconnect."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    def _connect(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def reset(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def post(
        self, path: str, payload: dict, timeout: float
    ) -> Tuple[int, dict, dict]:
        """Returns (status, body_dict, headers_dict); raises OSError
        family on transport failure."""
        conn = self._connect()
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        body = json.dumps(payload)
        conn.request(
            "POST",
            path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        headers = {k.lower(): v for k, v in response.getheaders()}
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            parsed = {}
        if headers.get("connection", "").lower() == "close":
            self.reset()
        return response.status, parsed, headers

    def close(self) -> None:
        self.reset()


def _retry_after_s(body: dict, headers: dict) -> float:
    """The server's backoff hint in seconds (JSON field wins)."""
    value = body.get("retry_after_s")
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    header = headers.get("retry-after")
    if header is not None:
        try:
            return max(float(header), 0.0)
        except ValueError:
            pass
    return 1.0


class ReplayDriver:
    """Fires a :class:`Trace` at a server and collects outcomes.

    Args:
        host/port: the ``repro serve`` endpoint.
        deadline_s: per-request budget measured from the scheduled
            arrival; requests that blow it are abandoned.
        connections: keep-alive client pool width.
        honor_retry_after: back 429 retries off by the server's hint.
        max_retries: 429 re-submissions per request (0 = never retry).
        rate_scale: multiply the trace's offered rate (offsets divide).
    """

    def __init__(
        self,
        host: str,
        port: int,
        deadline_s: float = 5.0,
        connections: int = 8,
        honor_retry_after: bool = True,
        max_retries: int = 2,
        rate_scale: float = 1.0,
        path: str = "/estimate",
    ) -> None:
        if connections < 1:
            raise ValueError(
                f"connections must be >= 1, got {connections}"
            )
        if rate_scale <= 0:
            raise ValueError(
                f"rate_scale must be > 0, got {rate_scale}"
            )
        self.host = host
        self.port = port
        self.deadline_s = deadline_s
        self.connections = connections
        self.honor_retry_after = honor_retry_after
        self.max_retries = max_retries
        self.rate_scale = rate_scale
        self.path = path

    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        stop_event: Optional[threading.Event] = None,
    ) -> Tuple[SLOReport, List[RequestOutcome]]:
        """Replay *trace* open-loop; returns (report, per-request
        outcomes).  The report is unevaluated — call
        :meth:`SLOReport.evaluate` with an :class:`~repro.replay.slo.SLO`
        to gate."""
        stop = stop_event or threading.Event()
        work: "queue.Queue" = queue.Queue()
        outcomes: List[RequestOutcome] = []
        outcomes_lock = threading.Lock()
        start = time.monotonic()
        last_done = [start]

        def schedule() -> None:
            for event in trace.events:
                if stop.is_set():
                    break
                target = start + event.offset_s / self.rate_scale
                while True:
                    now = time.monotonic()
                    if now >= target or stop.is_set():
                        break
                    time.sleep(min(target - now, 0.05))
                if stop.is_set():
                    break
                work.put((event, target))
            for _ in range(self.connections):
                work.put(None)

        def worker() -> None:
            client = _Client(
                self.host, self.port, timeout=self.deadline_s
            )
            try:
                while True:
                    item = work.get()
                    if item is None:
                        return
                    outcome = self._fire(client, *item, stop=stop)
                    with outcomes_lock:
                        outcomes.append(outcome)
                        last_done[0] = time.monotonic()
            finally:
                client.close()

        scheduler = threading.Thread(
            target=schedule, name="repro-replay-schedule", daemon=True
        )
        workers = [
            threading.Thread(
                target=worker,
                name=f"repro-replay-client-{i}",
                daemon=True,
            )
            for i in range(self.connections)
        ]
        scheduler.start()
        for thread in workers:
            thread.start()
        scheduler.join()
        join_budget = (
            trace.duration_s / self.rate_scale + self.deadline_s + 10.0
        )
        deadline = time.monotonic() + join_budget
        for thread in workers:
            thread.join(max(deadline - time.monotonic(), 0.1))
        duration = max(last_done[0] - start, 1e-9)
        offered = trace.offered_rate_qps * self.rate_scale
        report = build_report(outcomes, offered, duration)
        return report, outcomes

    # ------------------------------------------------------------------

    def _fire(
        self,
        client: _Client,
        event: TraceEvent,
        scheduled_at: float,
        stop: threading.Event,
    ) -> RequestOutcome:
        deadline_at = scheduled_at + self.deadline_s
        retries = 0
        payload = {"queries": [event.text]}
        while True:
            now = time.monotonic()
            if now >= deadline_at:
                return RequestOutcome(
                    offset_s=event.offset_s,
                    status=0,
                    latency_s=now - scheduled_at,
                    retries=retries,
                    deadline_missed=True,
                    error="deadline expired before completion",
                )
            try:
                status, body, headers = client.post(
                    self.path, payload, timeout=deadline_at - now
                )
            except OSError as exc:
                client.reset()
                now = time.monotonic()
                # The socket timeout is budgeted from the deadline, so a
                # timed-out exchange *is* a deadline miss, not a generic
                # transport fault.
                missed = (
                    isinstance(exc, TimeoutError) or now >= deadline_at
                )
                return RequestOutcome(
                    offset_s=event.offset_s,
                    status=0,
                    latency_s=now - scheduled_at,
                    retries=retries,
                    deadline_missed=missed,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if (
                status == 429
                and self.honor_retry_after
                and retries < self.max_retries
                and not stop.is_set()
            ):
                backoff = _retry_after_s(body, headers)
                wakeup = time.monotonic() + backoff
                if wakeup < deadline_at:
                    retries += 1
                    while time.monotonic() < wakeup and not stop.is_set():
                        time.sleep(
                            max(
                                min(wakeup - time.monotonic(), 0.05),
                                0.0,
                            )
                        )
                    continue
            return RequestOutcome(
                offset_s=event.offset_s,
                status=status,
                latency_s=time.monotonic() - scheduled_at,
                degraded=bool(body.get("degraded", False)),
                retries=retries,
                error=None if status == 200 else body.get("error"),
            )
