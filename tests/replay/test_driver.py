"""The open-loop driver against the live harness.

Clean replay, overload shedding with server-derived backoff, and
deadline accounting.
"""

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.replay import ReplayDriver, generate_trace
from repro.replay.driver import _retry_after_s


def _stats(server):
    with urllib.request.urlopen(f"{server.url}/stats", timeout=10) as r:
        return json.load(r)


@pytest.fixture(scope="module")
def small_trace(replay_store):
    return generate_trace(
        replay_store, rate_qps=30.0, duration_s=3.0, seed=21
    )


class TestRetryAfterParsing:
    def test_json_field_wins(self):
        assert _retry_after_s(
            {"retry_after_s": 0.25}, {"retry-after": "3"}
        ) == pytest.approx(0.25)

    def test_header_fallback(self):
        assert _retry_after_s({}, {"retry-after": "3"}) == pytest.approx(
            3.0
        )

    def test_default(self):
        assert _retry_after_s({}, {}) == pytest.approx(1.0)
        assert _retry_after_s(
            {}, {"retry-after": "soon"}
        ) == pytest.approx(1.0)


class TestCleanReplay:
    def test_all_ok_at_offered_rate(self, harness, small_trace):
        driver = ReplayDriver(
            harness.host, harness.port, deadline_s=10.0
        )
        report, outcomes = driver.run(small_trace)
        assert report.requests == len(small_trace)
        assert report.errors == 0, report.status_counts
        assert report.shed == 0
        assert report.completed == len(small_trace)
        assert report.achieved_fraction > 0.9
        assert report.latency_ms["p99"] > 0
        # open-loop invariant: every outcome ties back to an arrival
        assert len(outcomes) == len(small_trace)

    def test_rate_scale_compresses_schedule(self, harness, replay_store):
        trace = generate_trace(
            replay_store, rate_qps=10.0, duration_s=2.0, seed=3
        )
        driver = ReplayDriver(
            harness.host, harness.port, deadline_s=10.0, rate_scale=4.0
        )
        report, _ = driver.run(trace)
        assert report.errors == 0
        # 2 s of trace replayed 4x faster finishes well under 2 s
        assert report.duration_s < 1.5
        assert report.offered_rate_qps == pytest.approx(
            trace.offered_rate_qps * 4.0, rel=0.05
        )


def under_provisioned(snapshot_dir, checkpoint_dir):
    """One worker thread, batch of 2, queue of 2, and every batch
    delayed 25 ms by the fault injector — on a checkpoint that already
    exists, so no refit."""
    from repro.replay import ReplayHarness
    from repro.serve.faults import FaultSpec

    h = ReplayHarness(
        snapshot_dir, checkpoint_dir, workers=1,
        fault_spec=FaultSpec(delay_ms=25.0),
    )
    h.scheduler.max_batch = 2
    h.scheduler.max_queue = 2
    return h


class TestOverload:
    @pytest.fixture(scope="class")
    def tiny_server(self, snapshot_dir, harness):
        """A deliberately under-provisioned server."""
        h = under_provisioned(snapshot_dir, harness.checkpoint_dir)
        h.wait_ready()
        yield h
        h.close()

    @pytest.fixture()
    def gated_server(self, snapshot_dir, harness):
        """The same under-provisioned server, but its first batch blocks
        until the test sets the returned gate, so a burst finds the
        queue full however fast the machine is."""
        h = under_provisioned(snapshot_dir, harness.checkpoint_dir)
        gate, entered = threading.Event(), threading.Event()
        estimate_batch = h.service.framework.estimate_batch

        def gated(queries):
            if not entered.is_set():
                entered.set()
                assert gate.wait(30.0)
            return estimate_batch(queries)

        h.backend.swap_primary(gated)
        h.wait_ready()
        yield h, gate
        gate.set()
        h.close()

    def test_sheds_and_honors_retry_after(
        self, gated_server, replay_store
    ):
        server, gate = gated_server
        trace = generate_trace(
            replay_store,
            rate_qps=1500.0,
            duration_s=0.2,
            mix=[("star", 2, 1.0)],
            seed=9,
            arrivals="uniform",
        )
        # A deadline far past the retry hints: every outcome is a 200 or
        # a 429, never a deadline miss, however slow the machine.
        driver = ReplayDriver(
            server.host,
            server.port,
            deadline_s=30.0,
            connections=16,
            max_retries=2,
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(driver.run, trace)
            # While the gate is shut nothing completes, so a client's
            # request is refused until it is shed on its third refusal
            # (max_retries=2).  More than two refusals per connection
            # therefore means some request retried and was shed.
            deadline = time.monotonic() + 30.0
            while _stats(server)["rejected"] <= 2 * driver.connections:
                assert time.monotonic() < deadline, _stats(server)
                time.sleep(0.05)
            gate.set()
            report, _ = running.result(120.0)
        # conservation: every request ends exactly one way
        assert (
            report.completed + report.shed + report.errors
            == report.requests
        )
        assert report.errors == 0, report.status_counts
        assert report.shed > 0
        # derived backoff reached the client and was honored
        assert report.retries > 0

    def test_deadline_misses_recorded(self, tiny_server, replay_store):
        trace = generate_trace(
            replay_store,
            rate_qps=200.0,
            duration_s=0.2,
            mix=[("star", 2, 1.0)],
            seed=10,
            arrivals="uniform",
        )
        driver = ReplayDriver(
            tiny_server.host,
            tiny_server.port,
            deadline_s=0.05,
            connections=1,
            max_retries=0,
        )
        report, outcomes = driver.run(trace)
        assert report.deadline_missed > 0
        missed = [o for o in outcomes if o.deadline_missed]
        assert all(o.status == 0 for o in missed)
