"""Work-conserving request scheduler for the estimation service.

A query optimizer — or here, N concurrent HTTP handler threads — issues
many small estimation requests.  Answering each alone wastes the
vectorized ``estimate_batch`` path (one featurize + one forward
regardless of batch width), so :class:`BatchScheduler` coalesces
concurrent requests into one batched call — but never by waiting:

- when the worker thread is free, whatever is pending is dispatched at
  once; a lone request on an idle server reaches the estimator alone,
  with no window to wait out;
- requests that arrive while a batch is in flight form the next batch,
  capped at ``max_batch`` queries.  The execution time of the in-flight
  batch is the only accumulation window (continuous batching), so the
  scheduler is never idle while work is pending and has no timeout to
  tune.

Requests are **atomic**: a request's queries are never split across
batches (a single request may exceed ``max_batch``), so a request posted
to an idle scheduler is answered by one ``estimate_batch`` call over
exactly its queries — which is what makes served results byte-identical
to calling :meth:`Framework.estimate_batch` directly.

Backpressure is load-shedding, not buffering: once ``max_queue`` queries
are pending, :meth:`BatchScheduler.submit` raises
:class:`QueueFullError` (the HTTP layer maps it to 429) instead of
letting latency grow without bound.

The scheduler owns one daemon worker thread; the underlying numpy
forward releases the GIL for the heavy matmuls, so client threads keep
parsing/serializing while a batch runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.estimator import finalize_estimates


class QueueFullError(RuntimeError):
    """The scheduler is at capacity; the caller should shed load (429).

    ``retry_after_s`` is the scheduler's estimate of how long the
    current backlog needs to drain (queue depth / recent drain rate) —
    the HTTP layer turns it into the 429 ``Retry-After`` header so
    rejected clients spread their retries over the real recovery window
    instead of stampeding back in lockstep after a constant delay.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class SchedulerClosedError(RuntimeError):
    """Submit after close()."""


@dataclass
class _Request:
    queries: List
    future: Future
    enqueued: float
    #: backend metadata for the batch that answered this request
    #: (checkpoint generation, degraded flag); filled by the worker
    #: thread before the future resolves, read by submit_with_meta().
    meta: Optional[Dict[str, object]] = None

    @property
    def size(self) -> int:
        return len(self.queries)


@dataclass
class _Counters:
    """Mutable running totals, read out via :meth:`BatchScheduler.stats`."""

    requests: int = 0
    queries: int = 0
    batches: int = 0
    rejected: int = 0  # load-shed submits (QueueFullError / HTTP 429)
    errors: int = 0
    retries: int = 0  # requests re-run alone after a coalesced failure
    max_batch_seen: int = 0
    coalesced_requests: int = 0  # requests that shared a batch
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=4096)
    )
    #: (finished_at, queries) per recent executed batch — the drain-rate
    #: window behind ``retry_after_s``.
    drained: Deque[tuple] = field(
        default_factory=lambda: deque(maxlen=64)
    )


class BatchScheduler:
    """Coalesces concurrent estimate requests into batched calls.

    Args:
        estimate_batch: the batched estimator —
            ``(queries) -> np.ndarray`` — typically
            ``LMKG.estimate_batch`` or a
            :class:`~repro.serve.supervisor.SupervisedPool`.
        max_batch: most queries one batch collects from the requests
            that queued behind the one in flight (a single larger
            request still runs whole).
        max_queue: pending-query capacity; beyond it submits are
            rejected with :class:`QueueFullError`.  An empty queue
            always admits, so rejection means retrying can succeed.
    """

    #: the batching policy every server runs with (no flag overrides it).
    MAX_BATCH = 64
    MAX_QUEUE = 4096

    def __init__(
        self,
        estimate_batch: Callable[[List], np.ndarray],
        max_batch: int = MAX_BATCH,
        max_queue: int = MAX_QUEUE,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._fn = estimate_batch
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._cv = threading.Condition()
        self._pending: Deque[_Request] = deque()
        self._pending_queries = 0
        self._closed = False
        self._counters = _Counters()
        self._thread = threading.Thread(
            target=self._run, name="repro-batch-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def submit_async(self, queries: Sequence) -> Future:
        """Enqueue one request; the Future resolves to its estimates."""
        return self._enqueue(queries).future

    def _enqueue(self, queries: Sequence) -> _Request:
        queries = list(queries)
        future: Future = Future()
        if not queries:
            future.set_result(np.zeros(0, dtype=np.float64))
            return _Request(queries, future, time.monotonic(), meta={})
        with self._cv:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            # An empty queue always admits — even a request larger than
            # max_queue (the HTTP body limit bounds it) — so a 429
            # always means retrying later can succeed.
            if (
                self._pending_queries > 0
                and self._pending_queries + len(queries) > self.max_queue
            ):
                self._counters.rejected += 1
                raise QueueFullError(
                    f"queue full: {self._pending_queries} queries "
                    f"pending, request adds {len(queries)}, "
                    f"capacity {self.max_queue}",
                    retry_after_s=self._retry_after_locked(),
                )
            request = _Request(queries, future, time.monotonic())
            self._pending.append(request)
            self._pending_queries += len(queries)
            self._counters.requests += 1
            self._counters.queries += len(queries)
            self._cv.notify_all()
        return request

    def submit(
        self, queries: Sequence, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Blocking form of :meth:`submit_async`."""
        return self.submit_async(queries).result(timeout)

    def submit_with_meta(
        self, queries: Sequence, timeout: Optional[float] = None
    ):
        """Like :meth:`submit`, also returning the backend's batch
        metadata (``generation``, ``degraded``, ...) — empty dict when
        the backend reports none."""
        request = self._enqueue(queries)
        values = request.future.result(timeout)
        return values, dict(request.meta or {})

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests, drain the queue, join the worker."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters and latency percentiles for ``GET /stats``."""
        with self._cv:
            c = self._counters
            latencies = np.array(c.latencies, dtype=np.float64)
            snapshot: Dict[str, object] = {
                "requests": c.requests,
                "queries": c.queries,
                "batches": c.batches,
                "rejected": c.rejected,
                "errors": c.errors,
                "retries": c.retries,
                "queue_depth": self._pending_queries,
                "drain_rate_qps": round(self._drain_rate_locked(), 2),
                "retry_after_s": round(self._retry_after_locked(), 3),
                "max_batch_seen": c.max_batch_seen,
                "coalesced_requests": c.coalesced_requests,
                "mean_batch": (
                    round(c.queries / c.batches, 2) if c.batches else 0.0
                ),
                "policy": {
                    "max_batch": self.max_batch,
                    "max_queue": self.max_queue,
                },
            }
        if latencies.size:
            snapshot["latency_ms"] = {
                "p50": round(float(np.percentile(latencies, 50)) * 1e3, 3),
                "p90": round(float(np.percentile(latencies, 90)) * 1e3, 3),
                "p99": round(float(np.percentile(latencies, 99)) * 1e3, 3),
                "max": round(float(latencies.max()) * 1e3, 3),
            }
        return snapshot

    #: Retry-After when the drain rate is still unknown (no batch has
    #: finished yet), and the clamp bounds for the derived estimate.
    DEFAULT_RETRY_AFTER_S = 1.0
    MIN_RETRY_AFTER_S = 0.05
    MAX_RETRY_AFTER_S = 30.0

    def _drain_rate_locked(self) -> float:
        """Recent backlog drain rate in queries/second (0.0 = unknown).

        Measured over the window of the last executed batches: total
        queries answered divided by the span from the oldest recorded
        batch completion to now — so an idle scheduler's rate decays
        instead of reporting the last burst's throughput forever.
        """
        drained = self._counters.drained
        if not drained:
            return 0.0
        oldest = drained[0][0]
        span = time.monotonic() - oldest
        if span <= 0:
            return 0.0
        return sum(width for _, width in drained) / span

    def _retry_after_locked(self) -> float:
        """Seconds until the current backlog should have drained.

        ``queue depth / drain rate``, clamped to
        ``[MIN_RETRY_AFTER_S, MAX_RETRY_AFTER_S]``;
        :data:`DEFAULT_RETRY_AFTER_S` before any batch has finished.
        """
        rate = self._drain_rate_locked()
        if rate <= 0:
            return self.DEFAULT_RETRY_AFTER_S
        return min(
            max(self._pending_queries / rate, self.MIN_RETRY_AFTER_S),
            self.MAX_RETRY_AFTER_S,
        )

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _next_batch(self) -> Optional[List[_Request]]:
        """Block until work is pending; None when closed and drained.

        Never waits for company: whatever queued while the previous
        batch ran is handed over at once, up to ``max_batch`` queries.
        """
        with self._cv:
            while not self._pending and not self._closed:
                self._cv.wait()
            if not self._pending:
                return None  # closed and drained
            batch: List[_Request] = []
            total = 0
            while self._pending and (
                total == 0
                or total + self._pending[0].size <= self.max_batch
            ):
                request = self._pending.popleft()
                batch.append(request)
                total += request.size
            self._pending_queries -= total
            return batch

    def _execute(self, batch: List[_Request]) -> None:
        live = [
            r for r in batch if r.future.set_running_or_notify_cancel()
        ]
        if not live:
            return
        queries = [q for r in live for q in r.queries]
        try:
            values, meta = self._call_backend(queries)
        except BaseException as exc:  # noqa: BLE001 — shipped to callers
            if len(live) > 1:
                # One poisoned request must not fail its co-batched
                # neighbours: fall back to per-request calls so only the
                # offender(s) see the error.
                self._execute_individually(live)
                return
            with self._cv:
                self._counters.errors += 1
            for request in live:
                request.future.set_exception(exc)
            return
        finished = time.monotonic()
        offset = 0
        with self._cv:
            self._counters.batches += 1
            self._counters.drained.append((finished, len(queries)))
            self._counters.max_batch_seen = max(
                self._counters.max_batch_seen, len(queries)
            )
            if len(live) > 1:
                self._counters.coalesced_requests += len(live)
            for request in live:
                self._counters.latencies.append(
                    finished - request.enqueued
                )
        for request in live:
            request.meta = meta
            request.future.set_result(
                values[offset:offset + request.size].copy()
            )
            offset += request.size

    def _call_backend(self, queries: List):
        """Run the backend once; normalises its return to
        ``(values, meta)`` whether or not it reports metadata (a plain
        framework/pool returns just the array, a
        :class:`~repro.serve.supervisor.ResilientBackend` returns the
        ``(values, meta)`` pair)."""
        raw = self._fn(queries)
        meta: Dict[str, object] = {}
        if isinstance(raw, tuple):
            raw, meta = raw
        return (
            finalize_estimates(raw, len(queries), "serve-backend"),
            meta,
        )

    def _execute_individually(self, live: List[_Request]) -> None:
        """Isolation fallback after a failed coalesced batch: each
        request runs alone, so an exception reaches only the request
        that caused it."""
        with self._cv:
            self._counters.retries += len(live)
        for request in live:
            try:
                values, meta = self._call_backend(request.queries)
            except BaseException as exc:  # noqa: BLE001
                with self._cv:
                    self._counters.errors += 1
                request.future.set_exception(exc)
                continue
            finished = time.monotonic()
            with self._cv:
                self._counters.batches += 1
                self._counters.drained.append(
                    (finished, request.size)
                )
                self._counters.latencies.append(
                    finished - request.enqueued
                )
            request.meta = meta
            request.future.set_result(values)
