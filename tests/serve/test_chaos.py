"""Chaos suite: the serving invariants under induced failure.

Every scenario drives the full production stack — SupervisedPool
workers, ResilientBackend + breaker, BatchScheduler, HTTP endpoint —
and asserts the client-visible contract: **no request ever fails**
because of a fault on our side of the socket; answers are either
primary or explicitly ``degraded``.
"""

import http.client
import json
import os
import shutil
import signal
import threading
import time

import pytest

from repro.serve import ServingApp
from repro.serve.artifacts import save_checkpoint
from repro.serve.faults import corrupt_checkpoint

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)


@pytest.fixture(scope="module")
def v2_checkpoint(service, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "ckpt"
    save_checkpoint(service.framework, path)
    return path


@pytest.fixture(scope="module")
def stack(snapshot_dir, v2_checkpoint):
    """Pool-backed serving stack (the `--workers N` production shape)."""
    app = ServingApp(snapshot_dir, v2_checkpoint, port=0, workers=2)
    # The storms kill a worker every 0.4 s: restart faster than that,
    # as often as it takes, and queue every client of a 50-client storm.
    app.pool.backoff_base = 0.05
    app.pool.restart_budget = 64
    app.scheduler.max_queue = 8192
    app.start()
    yield {
        "addr": (app.host, app.port),
        "runtime": app.runtime,
        "pool": app.pool,
    }
    app.close()


class _Client(threading.Thread):
    """Keep-alive client hammering /estimate; records every outcome."""

    def __init__(self, addr, requests, body=None):
        super().__init__(daemon=True)
        self.addr = addr
        self.requests = requests
        self.body = json.dumps(
            body or {"queries": [QUERY]}
        ).encode("utf-8")
        self.outcomes = []  # (status, payload) per request
        self.errors = []  # transport-level exceptions

    def run(self):
        conn = http.client.HTTPConnection(*self.addr, timeout=120)
        headers = {"Content-Type": "application/json"}
        for _ in range(self.requests):
            try:
                conn.request(
                    "POST", "/estimate", self.body, headers
                )
                with conn.getresponse() as response:
                    payload = json.loads(response.read())
                    self.outcomes.append(
                        (response.status, payload)
                    )
            except Exception as exc:  # noqa: BLE001 — recorded
                self.errors.append(repr(exc))
                conn.close()
                conn = http.client.HTTPConnection(
                    *self.addr, timeout=120
                )
        conn.close()


def _storm(addr, clients, requests_per_client):
    threads = [
        _Client(addr, requests_per_client) for _ in range(clients)
    ]
    for t in threads:
        t.start()
    return threads


def _join(threads):
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads), "client hung"
    outcomes = [o for t in threads for o in t.outcomes]
    errors = [e for t in threads for e in t.errors]
    return outcomes, errors


def _wait(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestKillStorm:
    def test_worker_kills_under_load_zero_client_failures(
        self, stack
    ):
        """SIGKILL a worker roughly once a second while 20 keep-alive
        clients hammer the endpoint: every request must come back 200,
        primary or degraded."""
        pool = stack["pool"]
        stop = threading.Event()
        kills = []

        def killer():
            # first kill lands almost immediately so even a fast
            # storm overlaps at least one worker death
            delay = 0.05
            while not stop.wait(delay):
                delay = 0.4
                victims = [w for w in pool._workers if w.is_alive()]
                if victims:
                    os.kill(victims[0].process.pid, signal.SIGKILL)
                    kills.append(victims[0].id)

        chaos = threading.Thread(target=killer, daemon=True)
        chaos.start()
        try:
            threads = _storm(
                stack["addr"], clients=20, requests_per_client=40
            )
            outcomes, errors = _join(threads)
        finally:
            stop.set()
            chaos.join(timeout=5)

        assert not errors, errors[:5]
        assert len(outcomes) == 20 * 40
        non_200 = [o for o in outcomes if o[0] != 200]
        assert not non_200, non_200[:5]
        # the chaos actually happened and was noticed
        assert kills
        assert _wait(lambda: pool.stats()["deaths"] >= 1), (
            kills,
            pool.stats(),
        )
        # and the pool heals afterwards
        assert _wait(
            lambda: all(
                w["alive"] for w in pool.stats()["workers"]
            )
        ), pool.stats()

    def test_estimates_stay_correct_after_the_storm(
        self, stack, service, star_queries
    ):
        import numpy as np

        got = stack["pool"].estimate_batch(star_queries[:8])
        want = service.framework.estimate_batch(star_queries[:8])
        np.testing.assert_allclose(got, want, rtol=1e-6)


class TestReloadUnderLoad:
    def test_hot_reload_storm_no_5xx_no_stale_generation(
        self, stack, v2_checkpoint, tmp_path
    ):
        """Reload mid-storm under 50 keep-alive clients: zero 5xx,
        every response tagged with a valid generation, and requests
        issued after the reload returns answer from the new one."""
        runtime = stack["runtime"]
        target = tmp_path / "next"
        shutil.copytree(v2_checkpoint, target)
        g0 = runtime.generation

        threads = _storm(
            stack["addr"], clients=50, requests_per_client=10
        )
        time.sleep(0.3)  # let the storm build
        summary = runtime.reload(target)
        g1 = summary["generation"]
        assert g1 == g0 + 1
        outcomes, errors = _join(threads)

        assert not errors, errors[:5]
        assert len(outcomes) == 50 * 10
        non_200 = [o for o in outcomes if o[0] != 200]
        assert not non_200, non_200[:5]
        generations = {o[1]["generation"] for o in outcomes}
        assert generations <= {g0, g1}, generations

        # post-reload requests must be served by the new generation
        after = _Client(stack["addr"], requests=3)
        after.run()  # synchronous
        assert not after.errors
        assert all(
            payload["generation"] == g1
            for _, payload in after.outcomes
        )

    def test_full_storm_kills_plus_reload_under_50_clients(
        self, stack, v2_checkpoint, tmp_path
    ):
        """The headline invariant: one worker killed per second AND a
        checkpoint reload, all under 50 concurrent keep-alive clients
        — every request answers 200, zero 5xx, no stale generation."""
        pool, runtime = stack["pool"], stack["runtime"]
        stop = threading.Event()

        def killer():
            delay = 0.1
            while not stop.wait(delay):
                delay = 1.0
                victims = [w for w in pool._workers if w.is_alive()]
                if victims:
                    os.kill(victims[0].process.pid, signal.SIGKILL)

        target = tmp_path / "storm-next"
        shutil.copytree(v2_checkpoint, target)
        g0 = runtime.generation
        chaos = threading.Thread(target=killer, daemon=True)
        chaos.start()
        try:
            threads = _storm(
                stack["addr"], clients=50, requests_per_client=30
            )
            time.sleep(0.2)
            summary = runtime.reload(target)
            g1 = summary["generation"]
            outcomes, errors = _join(threads)
        finally:
            stop.set()
            chaos.join(timeout=5)

        assert g1 == g0 + 1
        assert not errors, errors[:5]
        assert len(outcomes) == 50 * 30
        non_200 = [o for o in outcomes if o[0] != 200]
        assert not non_200, non_200[:5]
        generations = {o[1]["generation"] for o in outcomes}
        assert generations <= {g0, g1}, generations
        # the pool heals once the storm stops
        assert _wait(
            lambda: all(
                w["alive"] for w in pool.stats()["workers"]
            )
        ), pool.stats()
        after = _Client(stack["addr"], requests=3)
        after.run()
        assert not after.errors
        assert all(
            payload["generation"] == g1
            for _, payload in after.outcomes
        )

    def test_generation_names_the_checkpoint_that_answered(
        self, snapshot_dir, v2_checkpoint, fit_defaults, tmp_path
    ):
        """Reload under load onto a checkpoint whose answer differs:
        every response carries the value its generation label names —
        also for requests sent while the workers load the new pair,
        which wait out the load and are answered after the flip."""
        import dataclasses

        from repro.serve import default_framework

        app = ServingApp(
            snapshot_dir, v2_checkpoint, port=0, workers=2
        ).start()
        addr = (app.host, app.port)
        stop = threading.Event()
        try:
            other = tmp_path / "other"
            save_checkpoint(
                default_framework(
                    app.service.store,
                    dataclasses.replace(fit_defaults, seed=1),
                ),
                other,
            )
            load = app.pool._load
            probes = []

            def probing_load(workers, *pair):
                if threading.current_thread() is not app.pool._supervisor:
                    probes.append(_Client(addr, requests=5))
                    probes[-1].start()  # the reload holds the pool
                return load(workers, *pair)

            app.pool._load = probing_load

            class _Looping(_Client):
                def run(self):
                    while not stop.is_set():
                        super().run()

            threads = [_Looping(addr, requests=20) for _ in range(8)]
            for t in threads:
                t.start()
            time.sleep(0.2)  # let the load build
            g0 = app.runtime.generation
            g1 = app.runtime.reload(other)["generation"]
            time.sleep(0.2)  # and keep it up past the reload
            stop.set()
            outcomes, errors = _join(threads)
            while_loading, probe_errors = _join(probes)
            assert not probe_errors, probe_errors
        finally:
            stop.set()
            app.close()

        assert not errors, errors[:5]
        answers = {}
        for status, payload in outcomes + while_loading:
            assert status == 200 and not payload["degraded"], payload
            answers.setdefault(payload["generation"], set()).add(
                float(f"{payload['estimates'][0]:.6g}")
            )
        assert set(answers) == {g0, g1}
        assert all(len(values) == 1 for values in answers.values()), answers
        assert answers[g0] != answers[g1]
        assert while_loading
        assert all(p["generation"] == g1 for _, p in while_loading)

    def test_corrupt_reload_mid_service_is_rejected_and_harmless(
        self, stack, v2_checkpoint, tmp_path
    ):
        from repro.serve import ArtifactError

        runtime = stack["runtime"]
        damaged = tmp_path / "damaged"
        shutil.copytree(v2_checkpoint, damaged)
        corrupt_checkpoint(damaged, "truncate-model")
        g = runtime.generation
        with pytest.raises(ArtifactError) as excinfo:
            runtime.reload(damaged)
        assert excinfo.value.reason == "checksum"
        assert runtime.generation == g
        probe = _Client(stack["addr"], requests=2)
        probe.run()
        assert not probe.errors
        assert all(s == 200 for s, _ in probe.outcomes)
