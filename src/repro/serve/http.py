"""The JSON-over-HTTP estimation endpoint (stdlib only).

``ThreadingHTTPServer`` gives one handler thread per connection; every
handler parses its request and blocks on the shared
:class:`~repro.serve.scheduler.BatchScheduler`, which coalesces the
concurrent requests into batched ``estimate_batch`` calls.  Routes:

- ``POST /estimate`` — body ``{"queries": ["SELECT ... WHERE {...}"]}``;
  answers ``{"estimates": [...], "count": N, "generation": G,
  "degraded": bool}``.  Malformed JSON, a missing/empty/ill-typed
  ``queries`` field, or unparseable SPARQL is a 400 with
  ``{"error": ...}``; an unestimable query is a 422 — at parse time with
  ``reason: "uncovered_shape"`` when admission control knows the shape
  is untrained, else post-execution with ``reason:
  "estimation_failed"``; a full scheduler queue is a 429 whose
  ``Retry-After`` header and ``retry_after_s`` field are derived from
  the live queue depth / drain rate (the same ``retry_after_s`` and
  ``drain_rate_qps`` that ``GET /stats`` reports), with
  ``reason: "queue_full"``.
- ``POST /admin/reload`` — body ``{}``, ``{"checkpoint": "<dir>"}``, or
  ``{"checkpoint": "<dir>", "snapshot": "<dir>"}``; hot-swaps the
  serving checkpoint — and, with ``snapshot``, the served graph (the
  maintenance hand-off) — with zero downtime (see
  :class:`~repro.serve.supervisor.ServingRuntime.reload`).  A checkpoint
  that fails the artifact gate is a 409 with the typed ``reason``
  (``corrupt`` / ``checksum`` / ``incompatible`` / ...) and the old
  checkpoint keeps serving; so does a swap the worker pool aborts
  because a worker died or failed while loading the new checkpoint
  (``reason: "worker_load_failed"``).
- ``GET /healthz`` — liveness, the served graph/model summary, and the
  fault-tolerance surface: checkpoint generation + schema
  version, per-worker liveness/restart counts, circuit-breaker state,
  and the dbt-sources-style ``freshness`` block (model generation vs.
  store generation, triple lag classified pass/warn/error against the
  declared thresholds).
- ``GET /stats`` — scheduler counters and latency percentiles.

Everything else is a 404.  The server never dies on a bad request: all
errors are JSON responses with the matching status code.  Requests are
not logged.

The handler reads its own HTTP/1.1 request heads (RFC 9112 §5, §6.3)
under the stdlib's limits and statuses, and writes every JSON response
— head and body — with one socket write.
"""

from __future__ import annotations

import email.utils
import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.core.framework import CheckpointError, EstimationError
from repro.rdf.columnar import SnapshotError
from repro.rdf.parser import ParseError
from repro.serve.admission import AdmissionError
from repro.serve.artifacts import ArtifactError
from repro.serve.scheduler import (
    BatchScheduler,
    QueueFullError,
    SchedulerClosedError,
)
from repro.serve.service import EstimatorService, ServiceError
from repro.serve.supervisor import ReloadError, ServingRuntime, SupervisorError

#: where ``repro serve`` listens unless told otherwise.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8310

#: request bodies beyond this are rejected (413) before being read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: sentinel returned by ``_Handler._read_body`` after an error response
#: (distinguishes "already answered" from a legitimately empty body).
_BAD_BODY = object()

#: request-head limits, the stdlib's (``http.client._MAXLINE`` and
#: ``_MAXHEADERS``, which counts the head's closing blank line too).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: an RFC 9110 field name: no whitespace, so a line with no colon,
#: whitespace before the colon or an obs-fold continuation fails it.
_FIELD_NAME = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")

#: an ``HTTP/x.y`` version token; ``\d`` takes the Unicode decimal
#: digits ``int`` parses.
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})")

#: (epoch second, its IMF-fixdate) of the last ``Date`` header written.
_date = (0, "")


def _http_date() -> str:
    """The ``Date`` header value, formatted at most once per second."""
    global _date
    now = int(time.time())
    if _date[0] != now:
        _date = (now, email.utils.formatdate(now, usegmt=True))
    return _date[1]


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token, None when malformed
    (the stdlib's rules: two parts, digits only, at most ten each)."""
    match = _VERSION.fullmatch(version)
    return (int(match[1]), int(match[2])) if match else None


class _Headers(dict):
    """Request header fields by lower-cased name; ``get`` takes any
    case and a repeated field keeps its first value."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class EstimatorHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service, scheduler and runtime."""

    daemon_threads = True
    #: socketserver's default listen backlog of 5 resets connections
    #: under a concurrent-client burst — exactly the workload the
    #: scheduler exists to coalesce.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        service: EstimatorService,
        scheduler: BatchScheduler,
        runtime: ServingRuntime,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.scheduler = scheduler
        self.runtime = runtime
        self.started_at = time.monotonic()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._draining = False

    # ------------------------------------------------------------------
    # Graceful drain (SIGTERM)
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting new ``/estimate`` work: handlers answer 503
        while already-accepted requests keep running to completion."""
        with self._inflight_cv:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._inflight_cv:
            return self._draining

    def _track_request(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _untrack_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def wait_inflight_drained(self, timeout: float = 30.0) -> bool:
        """Block until every accepted request has written its response
        (or *timeout* elapses); True when fully drained."""
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
            return True


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # A JSON response is one write, but a response longer than one
    # segment, the interim 100 Continue and the stdlib's error pages
    # (head and body as two writes) still leave a small segment behind
    # unacknowledged data; without TCP_NODELAY it waits for the peer's
    # delayed ACK (~40 ms) on a keep-alive connection.
    disable_nagle_algorithm = True
    server: EstimatorHTTPServer

    # ------------------------------------------------------------------
    # Request head
    # ------------------------------------------------------------------

    def parse_request(self) -> bool:
        """Read the request line and header fields after
        ``raw_requestline``; False once an error answer is sent.

        The stdlib's checks and statuses, without ``email.parser``:
        400 for a malformed request line or version, 505 for HTTP/2+,
        431 past :data:`_MAX_LINE` bytes a line or :data:`_MAX_HEADERS`
        lines.  A header line that is not ``name: value``, a second
        ``Content-Length`` and any ``Transfer-Encoding`` are a 400 that
        closes the connection: the body's framing is unknown (RFC 9112
        §5.1, §6.1, §6.3).
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    505, f"Invalid HTTP version ({version[5:]})"
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:  # HTTP/0.9: GET only
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    400, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        if path.startswith("//"):  # gh-87389: no scheme-relative paths
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        headers = self.headers = _Headers()
        readline = self.rfile.readline
        for count in range(_MAX_HEADERS + 1):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    431, "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading "
                    "header line",
                )
                return False
            if count == _MAX_HEADERS:
                self.send_error(
                    431, "Too many headers",
                    f"got more than {_MAX_HEADERS} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):  # b"": the peer closed
                break
            name, colon, value = line.partition(b":")
            if not colon or not _FIELD_NAME.fullmatch(name):
                self.send_error(400, "Bad header line")
                return False
            name = name.decode("iso-8859-1").lower()
            if name == "transfer-encoding":  # chunked is never decoded
                self.send_error(400, "Transfer-Encoding not supported")
                return False
            if name in headers:
                if name == "content-length":
                    self.send_error(400, "Duplicate Content-Length")
                    return False
                continue
            headers[name] = value.strip(b" \t\r\n").decode("iso-8859-1")

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        if self.path == "/healthz":
            payload = {
                "status": "ok",
                "uptime_s": round(
                    time.monotonic() - self.server.started_at, 3
                ),
            }
            payload.update(self.server.service.describe())
            payload.update(self.server.runtime.healthz_extras())
            self._send_json(200, payload)
        elif self.path == "/stats":
            self._send_json(200, self.server.scheduler.stats())
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        if self.server.draining:
            # SIGTERM drain: the listener is closing; answer anything
            # still arriving on live keep-alive connections with a 503
            # and drop the connection instead of admitting new work.
            self.close_connection = True
            self._send_json(
                503,
                {"error": "server is draining", "reason": "draining"},
            )
            return
        self.server._track_request()
        try:
            self._do_post()
        finally:
            self.server._untrack_request()

    def _do_post(self) -> None:
        if self.path == "/admin/reload":
            self._handle_reload()
            return
        if self.path != "/estimate":
            # The body stays unread, so the keep-alive stream is no
            # longer framed; drop the connection after answering.
            self.close_connection = True
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        texts = self._read_queries()
        if texts is None:
            return  # error response already sent
        service = self.server.service
        try:
            queries = service.parse_queries(texts)
        except ParseError as exc:
            self._send_json(400, {"error": f"bad query: {exc}"})
            return
        try:
            self.server.runtime.admission.admit_all(queries)
        except AdmissionError as exc:
            # Rejected at parse time: the doomed query never costs a
            # queue slot or a worker round trip.
            self._send_json(
                422,
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "query_index": exc.query_index,
                },
            )
            return
        try:
            values, meta = self.server.scheduler.submit_with_meta(
                queries
            )
        except QueueFullError as exc:
            # Retry-After must be integral delta-seconds (RFC 9110);
            # the JSON field keeps the sub-second precision so a
            # well-behaved client can come back sooner than 1 s.
            retry_after = float(
                getattr(exc, "retry_after_s", 1.0) or 1.0
            )
            self._send_json(
                429,
                {
                    "error": str(exc),
                    "reason": "queue_full",
                    "retry_after_s": round(retry_after, 3),
                },
                headers={
                    "Retry-After": str(
                        max(1, math.ceil(retry_after))
                    )
                },
            )
            return
        except EstimationError as exc:
            self._send_json(
                422,
                {"error": str(exc), "reason": "estimation_failed"},
            )
            return
        except SchedulerClosedError as exc:
            self._send_json(503, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 — a handler must answer
            # ServingWorkerError, EstimatorContractError, anything else:
            # the contract is a JSON response, never a dropped socket.
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        self._send_json(
            200,
            {
                "estimates": values.tolist(),
                "count": int(values.size),
                "generation": meta.get("generation"),
                "degraded": bool(meta.get("degraded", False)),
            },
        )

    def _handle_reload(self) -> None:
        """``POST /admin/reload`` — zero-downtime checkpoint swap."""
        body = self._read_body(allow_empty=True)
        if body is _BAD_BODY:
            return  # error response already sent
        checkpoint = None
        snapshot = None
        if body:
            try:
                payload = json.loads(body)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._send_json(
                    400, {"error": f"invalid JSON: {exc}"}
                )
                return
            if not isinstance(payload, dict):
                self._send_json(
                    400,
                    {
                        "error": "body must be {} or "
                        '{"checkpoint": dir, "snapshot": dir}'
                    },
                )
                return
            checkpoint = payload.get("checkpoint")
            if checkpoint is not None and not isinstance(
                checkpoint, str
            ):
                self._send_json(
                    400, {"error": '"checkpoint" must be a string'}
                )
                return
            snapshot = payload.get("snapshot")
            if snapshot is not None and not isinstance(snapshot, str):
                self._send_json(
                    400, {"error": '"snapshot" must be a string'}
                )
                return
        try:
            summary = self.server.runtime.reload(
                checkpoint, snapshot_dir=snapshot
            )
        except ArtifactError as exc:
            # Typed gate rejection; the old checkpoint keeps serving.
            self._send_json(
                409, {"error": str(exc), "reason": exc.reason}
            )
            return
        except (CheckpointError, ServiceError, SnapshotError) as exc:
            self._send_json(
                409, {"error": str(exc), "reason": "checkpoint_error"}
            )
            return
        except ReloadError as exc:
            self._send_json(
                409, {"error": str(exc), "reason": "no_checkpoint"}
            )
            return
        except SupervisorError as exc:
            # A pool worker died or failed in the load step: the pool
            # aborted the swap and the old pair keeps serving.
            self._send_json(
                409, {"error": str(exc), "reason": "worker_load_failed"}
            )
            return
        except Exception as exc:  # noqa: BLE001 — a handler must answer
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        summary = dict(summary)
        summary["status"] = "reloaded"
        self._send_json(200, summary)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _read_body(self, allow_empty: bool = False):
        """Read the request body, or :data:`_BAD_BODY` after an error
        response."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if allow_empty and length == 0:
            return b""
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body was never read, so the keep-alive stream is no
            # longer framed; drop the connection after answering.
            self.close_connection = True
        if length <= 0:
            self._send_json(400, {"error": "empty request body"})
            return _BAD_BODY
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
            )
            return _BAD_BODY
        return self.rfile.read(length)

    def _read_queries(self) -> Optional[list]:
        """Parse and validate the request body; None after an error
        response."""
        body = self._read_body()
        if body is _BAD_BODY:
            return None
        try:
            payload = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON: {exc}"})
            return None
        if (
            not isinstance(payload, dict)
            or "queries" not in payload
        ):
            self._send_json(
                400, {"error": 'body must be {"queries": [...]}'}
            )
            return None
        texts = payload["queries"]
        if not isinstance(texts, list) or not texts:
            self._send_json(
                400, {"error": '"queries" must be a non-empty list'}
            )
            return None
        if not all(isinstance(text, str) for text in texts):
            self._send_json(
                400, {"error": "every query must be a SPARQL string"}
            )
            return None
        return texts

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: Optional[dict] = None,
    ) -> None:
        """Write *payload* as a JSON response, head and body in one
        write (an HTTP/0.9 request gets the body alone)."""
        body = json.dumps(payload).encode("utf-8")
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        head = (
            f"{self.protocol_version} {status} "
            f"{self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def make_server(
    service: EstimatorService,
    scheduler: BatchScheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    runtime: ServingRuntime,
) -> EstimatorHTTPServer:
    """Bind (but do not run) the estimation endpoint.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  Call ``serve_forever()`` to run and
    ``shutdown()`` from another thread to stop.  *runtime* answers
    ``POST /admin/reload``, admission and the fault-tolerance
    ``/healthz`` surface.
    """
    return EstimatorHTTPServer((host, port), service, scheduler, runtime)
