"""Graceful drain and derived Retry-After (backpressure quality).

In-process tests cover the drain state machine and the queue-derived
backoff hint; a subprocess test proves the full SIGTERM story: stop
accepting, flush in-flight batches, exit 0.
"""

import http.client
import json
import signal
import threading
import time

import pytest

from repro.serve import BatchScheduler, QueueFullError

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)


def post_raw(host, port, body):
    """POST returning (status, payload, headers) — header access is
    what the stdlib urlopen helpers in the sibling modules drop."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST",
            "/estimate",
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, payload, headers
    finally:
        conn.close()


class TestDerivedRetryAfter:
    def test_queue_full_error_carries_hint(self, service):
        gate = threading.Event()
        entered = threading.Event()
        parsed = service.parse_queries([QUERY])

        def gated(queries):
            entered.set()
            assert gate.wait(30.0)
            return service.framework.estimate_batch(queries)

        scheduler = BatchScheduler(
            gated, max_batch=1, max_queue=1
        )
        try:
            first = scheduler.submit_async(parsed)
            assert entered.wait(30.0)
            second = scheduler.submit_async(parsed)  # fills the queue
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(parsed)
            hint = excinfo.value.retry_after_s
            # no batch has completed yet: the default hint
            assert hint == pytest.approx(1.0)
            gate.set()
            first.result(30.0)
            second.result(30.0)
        finally:
            gate.set()
            scheduler.close()

    def test_hint_derived_from_drain_rate(self, service):
        """Once batches complete, the hint follows depth / drain rate
        and stays inside the clamp."""
        scheduler = BatchScheduler(
            service.framework.estimate_batch,
            max_batch=4,
            max_queue=8,
        )
        parsed = service.parse_queries([QUERY])
        try:
            for _ in range(6):
                scheduler.submit(parsed)
            stats = scheduler.stats()
            assert stats["drain_rate_qps"] > 0
            assert 0.05 <= stats["retry_after_s"] <= 30.0
        finally:
            scheduler.close()

    def test_http_429_carries_derived_backoff(self, gated_app):
        app, gate, entered = gated_app(
            first_only=True, max_batch=1, max_queue=1
        )
        host, port = app.host, app.port
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=3) as pool:
            blocker = pool.submit(
                post_raw, host, port, {"queries": [QUERY]}
            )
            assert entered.wait(30.0)
            filler = pool.submit(
                post_raw, host, port, {"queries": [QUERY]}
            )
            deadline = time.monotonic() + 30.0
            while (
                app.scheduler.stats()["queue_depth"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            status, payload, headers = post_raw(
                host, port, {"queries": [QUERY]}
            )
            assert status == 429
            assert payload["reason"] == "queue_full"
            # JSON hint: float seconds inside the clamp
            assert 0.05 <= payload["retry_after_s"] <= 30.0
            # header: RFC 9110 integral delta-seconds, >= 1
            retry_header = headers["retry-after"]
            assert retry_header == str(int(retry_header))
            assert int(retry_header) >= 1
            gate.set()
            assert blocker.result(30.0)[0] == 200
            assert filler.result(30.0)[0] == 200


class TestDrainStateMachine:
    @pytest.fixture()
    def draining_server(self, snapshot_dir, checkpoint_dir):
        from repro.serve import ServingApp

        app = ServingApp(snapshot_dir, checkpoint_dir, port=0).start()
        yield app.server
        app.close()

    def test_drain_rejects_new_requests_503(self, draining_server):
        host, port = draining_server.server_address[:2]
        status, payload, _ = post_raw(host, port, {"queries": [QUERY]})
        assert status == 200
        draining_server.begin_drain()
        assert draining_server.draining is True
        status, payload, _ = post_raw(host, port, {"queries": [QUERY]})
        assert status == 503
        assert payload["reason"] == "draining"

    def test_wait_inflight_drained_idle(self, draining_server):
        assert draining_server.wait_inflight_drained(timeout=5.0)

    def test_wait_inflight_blocks_until_request_finishes(
        self, gated_app
    ):
        app, gate, entered = gated_app(first_only=False)
        srv = app.server
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            inflight = pool.submit(
                post_raw, app.host, app.port, {"queries": [QUERY]}
            )
            assert entered.wait(30.0)
            # the tracked request is still being served
            assert not srv.wait_inflight_drained(timeout=0.2)
            gate.set()
            assert inflight.result(30.0)[0] == 200
            assert srv.wait_inflight_drained(timeout=10.0)


class TestSigtermDrain:
    def test_sigterm_exits_zero_after_drain(self, cli_serve):
        """The CI-shaped story: TERM a live `repro serve`, get a clean
        exit 0 and the drain banner."""
        process, url = cli_serve("--fit-queries", "30", "--fit-epochs", "1")
        host, port = url[len("http://"):].rsplit(":", 1)
        status, _, _ = post_raw(host, int(port), {"queries": [QUERY]})
        assert status == 200
        process.send_signal(signal.SIGTERM)
        out = process.stdout.read()
        assert process.wait(30) == 0, out
        assert "SIGTERM: drained" in out
        assert "exiting 0" in out
