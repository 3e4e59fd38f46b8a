"""Fault-tolerance layer: breaker, resilient backend, supervised pool."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.framework import EstimationError
from repro.rdf.parallel import available_cpus
from repro.serve.faults import FaultSpec
from repro.serve.supervisor import (
    BLAS_THREAD_VARS,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    NoWorkersError,
    ResilientBackend,
    SupervisedPool,
    SupervisorError,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# CircuitBreaker (pure unit tests, injectable clock)
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_starts_closed_routing_primary(self):
        breaker = CircuitBreaker()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.route() == "primary"

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.route() == "fallback"

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_after_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.route() == "fallback"
        clock.advance(5.1)
        assert breaker.route() == "primary"  # the probe
        assert breaker.state == BREAKER_HALF_OPEN

    def test_probe_is_single_flight(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.route() == "primary"
        # while the probe is in flight everyone else degrades
        assert breaker.route() == "fallback"
        assert breaker.route() == "fallback"

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        breaker.route()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.route() == "primary"

    def test_probe_failure_reopens_full_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=5.0, clock=clock
        )
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        breaker.route()  # probe out
        breaker.record_failure()  # one failure re-opens — no threshold
        assert breaker.state == BREAKER_OPEN
        clock.advance(4.9)
        assert breaker.route() == "fallback"  # window restarted
        clock.advance(0.2)
        assert breaker.route() == "primary"

    def test_opens_counter(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        breaker.route()
        breaker.record_failure()
        assert breaker.state_dict()["opens"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)


# ----------------------------------------------------------------------
# ResilientBackend (fake callables)
# ----------------------------------------------------------------------


def _ones(queries):
    return np.ones(len(queries), dtype=np.float64)


def _twos(queries):
    return np.full(len(queries), 2.0)


class TestResilientBackend:
    def test_primary_meta(self):
        backend = ResilientBackend(_ones, fallback=_twos)
        values, meta = backend(["q1", "q2"])
        assert values.tolist() == [1.0, 1.0]
        assert meta == {
            "generation": 1,
            "degraded": False,
            "backend": "primary",
        }

    def test_estimation_error_passes_through(self):
        def primary(queries):
            raise EstimationError("uncovered shape")

        backend = ResilientBackend(primary, fallback=_twos)
        with pytest.raises(EstimationError):
            backend(["q"])
        # a per-query 422 is not a primary-path failure
        assert backend.breaker.state == BREAKER_CLOSED

    def test_infrastructure_error_degrades_immediately(self):
        def primary(queries):
            raise SupervisorError("all workers failed")

        backend = ResilientBackend(primary, fallback=_twos)
        values, meta = backend(["q"])
        assert values.tolist() == [2.0]
        assert meta["degraded"] is True
        assert meta["backend"] == "fallback"

    def test_other_errors_propagate_until_breaker_opens(self):
        calls = {"primary": 0}

        def primary(queries):
            calls["primary"] += 1
            raise RuntimeError("boom")

        backend = ResilientBackend(
            primary,
            fallback=_twos,
            breaker=CircuitBreaker(
                failure_threshold=2, clock=FakeClock()
            ),
        )
        # while CLOSED the failure propagates (scheduler isolates it)
        with pytest.raises(RuntimeError):
            backend(["q"])
        # the opening failure itself is served degraded
        values, meta = backend(["q"])
        assert meta["degraded"] is True
        # breaker now open: fallback without touching the primary
        before = calls["primary"]
        values, meta = backend(["q"])
        assert meta["degraded"] is True
        assert calls["primary"] == before

    def test_fallback_failure_reraises_primary_cause(self):
        def primary(queries):
            raise SupervisorError("primary down")

        def fallback(queries):
            raise RuntimeError("fallback also down")

        backend = ResilientBackend(primary, fallback=fallback)
        with pytest.raises(SupervisorError, match="primary down"):
            backend(["q"])

    def test_half_open_recovery_end_to_end(self):
        clock = FakeClock()
        healthy = {"flag": False}

        def primary(queries):
            if not healthy["flag"]:
                raise SupervisorError("down")
            return _ones(queries)

        backend = ResilientBackend(
            primary,
            fallback=_twos,
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout_s=5.0, clock=clock
            ),
        )
        _, meta = backend(["q"])
        assert meta["degraded"] is True
        healthy["flag"] = True
        clock.advance(5.1)
        _, meta = backend(["q"])  # half-open probe hits primary
        assert meta["degraded"] is False
        assert backend.breaker.state == BREAKER_CLOSED

    def test_swap_primary_bumps_generation_and_resets_breaker(self):
        backend = ResilientBackend(_ones, fallback=_twos)
        backend.breaker.record_failure()
        backend.breaker.record_failure()
        backend.breaker.record_failure()
        assert backend.breaker.state == BREAKER_OPEN
        old = backend.swap_primary(_twos)
        assert old is _ones
        assert backend.generation == 2
        assert backend.breaker.state == BREAKER_CLOSED
        values, meta = backend(["q"])
        assert values.tolist() == [2.0]
        assert meta["generation"] == 2

    def test_stats(self):
        backend = ResilientBackend(_ones, fallback=_twos)
        backend(["q"])
        stats = backend.stats()
        assert stats["primary_batches"] == 1
        assert stats["degraded_batches"] == 0
        assert stats["fallback_available"] is True
        assert stats["circuit_breaker"]["state"] == BREAKER_CLOSED


# ----------------------------------------------------------------------
# SupervisedPool (real worker processes — slower)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool(snapshot_dir, checkpoint_dir):
    with SupervisedPool(
        snapshot_dir, checkpoint_dir, workers=2, request_timeout=30.0
    ) as pool:
        yield pool


def _wait(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSupervisedPool:
    def test_matches_in_process_estimates(
        self, pool, service, star_queries
    ):
        got = pool.estimate_batch(star_queries)
        want = service.framework.estimate_batch(star_queries)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_empty_batch(self, pool):
        assert pool.estimate_batch([]).shape == (0,)

    def test_survives_external_kill(self, pool, star_queries):
        deaths_before = pool.stats()["deaths"]
        victim = pool._workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        # the very next batch must succeed (sibling retry), even
        # though the dead worker has not been restarted yet
        values = pool.estimate_batch(star_queries)
        assert values.shape == (len(star_queries),)
        assert np.isfinite(values).all()
        # and the supervisor brings the slot back
        assert _wait(
            lambda: all(
                w["alive"] and w["state"] == "ready"
                for w in pool.stats()["workers"]
            )
        ), pool.stats()
        stats = pool.stats()
        assert stats["deaths"] > deaths_before
        assert stats["restarts_used"] >= 1

    def test_reload_blue_green(
        self, pool, service, star_queries, tmp_path
    ):
        from repro.serve.artifacts import save_checkpoint

        target = tmp_path / "ckpt2"
        save_checkpoint(service.framework, target)
        generation_before = pool.stats()["worker_set_generation"]
        generation = pool.reload(target)
        assert generation == generation_before + 1
        values = pool.estimate_batch(star_queries[:4])
        want = service.framework.estimate_batch(star_queries[:4])
        np.testing.assert_allclose(values, want, rtol=1e-6)

    def test_reload_bad_checkpoint_keeps_old_set(
        self, pool, star_queries, tmp_path
    ):
        with pytest.raises(SupervisorError):
            pool.reload(tmp_path / "does-not-exist")
        # every worker still serves the old pair
        values = pool.estimate_batch(star_queries[:4])
        assert values.shape == (4,)

    def test_estimation_error_is_not_a_death(self, pool, service):
        from repro.sampling import generate_workload

        uncovered = [
            record.query
            for record in generate_workload(
                service.store, "star", 3, 2, seed=5
            )
        ]
        deaths_before = pool.stats()["deaths"]
        with pytest.raises(EstimationError):
            pool.estimate_batch(uncovered)
        assert pool.stats()["deaths"] == deaths_before


class TestSupervisedPoolFaults:
    def test_kill_fault_mid_request_retries_on_sibling(
        self, snapshot_dir, checkpoint_dir, star_queries
    ):
        # every worker exits hard on its 2nd request: the first batch
        # serves cleanly, the second strands both chunks mid-flight.
        # The client must never notice — stranded chunks wait for the
        # supervisor's restarts (fresh fault counters) and re-run.
        spec = FaultSpec(kill_every=2)
        with SupervisedPool(
            snapshot_dir,
            checkpoint_dir,
            workers=2,
            request_timeout=30.0,
            fault_spec=spec,
            restart_budget=64,
            backoff_base=0.05,
        ) as pool:
            first = pool.estimate_batch(star_queries[:6])
            assert np.isfinite(first).all()
            second = pool.estimate_batch(star_queries[:6])
            assert second.shape == (6,)
            assert np.isfinite(second).all()
            np.testing.assert_allclose(second, first, rtol=1e-6)
            stats = pool.stats()
            assert stats["deaths"] >= 2
            assert stats["chunk_retries"] >= 2

    def test_hang_fault_times_out_and_recovers(
        self, snapshot_dir, checkpoint_dir, star_queries
    ):
        # the worker hangs on its 2nd request; the 1s request timeout
        # declares it hung, kills it, and the restarted worker (fresh
        # counter) serves the retried chunk.
        spec = FaultSpec(hang_every=2, hang_s=60.0)
        with SupervisedPool(
            snapshot_dir,
            checkpoint_dir,
            workers=1,
            request_timeout=1.0,
            fault_spec=spec,
            restart_budget=64,
            backoff_base=0.05,
        ) as pool:
            first = pool.estimate_batch(star_queries[:2])
            assert first.shape == (2,)
            second = pool.estimate_batch(star_queries[:2])
            assert second.shape == (2,)
            assert pool.stats()["timeouts"] >= 1

    def test_restart_budget_exhaustion_fails_slot(
        self, snapshot_dir, checkpoint_dir, star_queries
    ):
        with SupervisedPool(
            snapshot_dir,
            checkpoint_dir,
            workers=1,
            request_timeout=30.0,
            restart_budget=0,
        ) as pool:
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            assert _wait(
                lambda: pool.stats()["workers"][0]["state"]
                == "failed"
            ), pool.stats()
            with pytest.raises(NoWorkersError):
                pool.estimate_batch(star_queries[:2])


@pytest.fixture(scope="module")
def generation_two(snapshot_dir, checkpoint_dir, tmp_path_factory):
    """The (snapshot, checkpoint) pair a maintenance cycle publishes:
    50 more triples than the session pair, so neither half loads
    against the other half of the other pair."""
    from repro.rdf.store import TripleStore
    from repro.replay.harness import vocab_preserving_delta
    from repro.serve.artifacts import load_checkpoint, save_checkpoint

    store = TripleStore.load_snapshot(snapshot_dir)
    store.add_all(
        vocab_preserving_delta(store, 50, np.random.default_rng(3))
    )
    root = tmp_path_factory.mktemp("generation-two")
    store.save_snapshot(root / "snapshot")
    framework, _ = load_checkpoint(
        checkpoint_dir, store, allow_stale_store=True
    )
    save_checkpoint(framework, root / "checkpoint")
    return root / "snapshot", root / "checkpoint"


class TestReloadRestartPair:
    def test_restart_during_reload_attaches_the_serving_pair(
        self, snapshot_dir, checkpoint_dir, generation_two, star_queries
    ):
        """A worker that restarts while reload() loads the next pair
        into its sibling restarts on the serving (checkpoint, snapshot)
        pair — not the old checkpoint against the next snapshot, which
        fails the store fingerprint check and burns restart budget —
        and reload() then loads the next pair into it too."""
        next_snapshot, next_checkpoint = generation_two
        restarted, reload_loads = {}, []
        entered, gate = threading.Event(), threading.Event()
        with SupervisedPool(
            snapshot_dir, checkpoint_dir, workers=2, backoff_base=0.01
        ) as pool:
            victim = pool._workers[0]
            spawn_worker, load = pool._spawn_worker, pool._load

            def gated_spawn_worker(worker):
                if threading.current_thread() is pool._supervisor:
                    entered.set()
                    assert gate.wait(60.0)
                return spawn_worker(worker)

            def load_after_a_restart(workers, *pair):
                if threading.current_thread() is not pool._supervisor:
                    gate.set()
                    assert _wait(
                        lambda: victim.restarts >= 1
                        and victim.state != "starting"
                    ), pool.stats()
                    restarted.setdefault("state", victim.state)
                    restarted.setdefault("error", victim.last_error)
                    reload_loads.append([w.id for w in workers])
                return load(workers, *pair)

            pool._spawn_worker = gated_spawn_worker
            pool._load = load_after_a_restart
            os.kill(victim.process.pid, signal.SIGKILL)
            assert entered.wait(30.0), pool.stats()
            pool.reload(next_checkpoint, snapshot_dir=next_snapshot)
            values = pool.estimate_batch(star_queries[:4])
        assert restarted == {"state": "ready", "error": None}
        assert reload_loads == [[1], [0]]  # the sibling, then the victim
        assert np.isfinite(values).all()

    def test_restart_finishing_after_the_flip_does_not_outlive_the_old_pair(
        self, snapshot_dir, checkpoint_dir, generation_two, star_queries
    ):
        """A restart whose load straddles reload()'s flip loaded the
        pair the pool no longer serves: the supervisor loads the new
        pair into it before it marks it ready."""
        next_snapshot, next_checkpoint = generation_two
        entered, gate = threading.Event(), threading.Event()
        restart_loads = []
        with SupervisedPool(
            snapshot_dir, checkpoint_dir, workers=1, backoff_base=0.01
        ) as pool:
            load = pool._load

            def gated_load(workers, *pair):
                if threading.current_thread() is pool._supervisor:
                    restart_loads.append(tuple(map(str, pair)))
                    entered.set()
                    assert gate.wait(60.0)
                return load(workers, *pair)

            pool._load = gated_load
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            assert entered.wait(30.0), pool.stats()
            pool.reload(next_checkpoint, snapshot_dir=next_snapshot)
            gate.set()
            assert _wait(lambda: victim.state != "starting"), pool.stats()
            assert victim.state == "ready", victim.last_error
            values = pool.estimate_batch(star_queries[:4])
        assert restart_loads == [
            (str(snapshot_dir), str(checkpoint_dir)),
            (str(next_snapshot), str(next_checkpoint)),
        ]
        assert np.isfinite(values).all()


@pytest.fixture(scope="module")
def differing(service, fit_defaults, tmp_path_factory, star_queries):
    """``(other_checkpoint, queries, old, new)``: a checkpoint fitted on
    the session snapshot with another seed, the star queries on which
    its answers differ from the session checkpoint's, and both
    checkpoints' answers to them."""
    import dataclasses

    from repro.serve import default_framework
    from repro.serve.artifacts import save_checkpoint

    other = tmp_path_factory.mktemp("other") / "checkpoint"
    framework = default_framework(
        service.store, dataclasses.replace(fit_defaults, seed=1)
    )
    save_checkpoint(framework, other)
    old = service.framework.estimate_batch(star_queries)
    new = framework.estimate_batch(star_queries)
    keep = ~np.isclose(old, new, rtol=1e-3)
    assert keep.sum() >= 4, "the two checkpoints answer alike"
    queries = [q for q, k in zip(star_queries, keep) if k]
    return other, queries, old[keep], new[keep]


def _killing_the_last_loader(pool):
    """Hook *pool*'s load step: the first load reload() starts SIGKILLs
    the last worker it loads into before it sends the pair."""
    load = pool._load

    def kill_then_load(workers, *pair):
        if threading.current_thread() is not pool._supervisor:
            pool._load = load
            os.kill(workers[-1].process.pid, signal.SIGKILL)
        return load(workers, *pair)

    pool._load = kill_then_load


class TestReloadIntoLiveWorkers:
    def test_a_worker_killed_while_loading_aborts_the_reload(
        self, snapshot_dir, checkpoint_dir, differing
    ):
        other, queries, old, _ = differing
        with SupervisedPool(
            snapshot_dir, checkpoint_dir, workers=2, backoff_base=0.05
        ) as pool:
            generation = pool.stats()["worker_set_generation"]
            _killing_the_last_loader(pool)
            with pytest.raises(SupervisorError):
                pool.reload(other)
            assert pool.stats()["worker_set_generation"] == generation
            # The sibling loaded the pair but never flipped to it: it
            # answers alone while the killed slot restarts, then both do.
            answers = [pool.estimate_batch(queries) for _ in range(3)]
            assert _wait(
                lambda: all(
                    w["state"] == "ready" for w in pool.stats()["workers"]
                )
            ), pool.stats()
            answers.append(pool.estimate_batch(queries))
        for values in answers:
            np.testing.assert_allclose(values, old, rtol=1e-6)

    def test_a_slot_dead_at_reload_comes_back_on_the_new_pair(
        self, snapshot_dir, checkpoint_dir, differing
    ):
        other, queries, _, new = differing
        with SupervisedPool(
            snapshot_dir, checkpoint_dir, workers=2, backoff_base=1.0
        ) as pool:
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            assert _wait(
                lambda: pool.stats()["workers"][0]["state"] == "dead"
            ), pool.stats()
            pool.reload(other)
            assert _wait(
                lambda: all(
                    w["state"] == "ready" for w in pool.stats()["workers"]
                )
            ), pool.stats()
            # Two ready workers: the first half goes to the restarted slot.
            values = pool.estimate_batch(queries)
        np.testing.assert_allclose(values, new, rtol=1e-6)

    def test_after_an_aborted_reload_the_next_one_flips_its_own_pair(
        self, snapshot_dir, checkpoint_dir, differing, tmp_path
    ):
        import shutil

        other, queries, old, _ = differing
        again = tmp_path / "again"
        shutil.copytree(checkpoint_dir, again)
        with SupervisedPool(
            snapshot_dir, checkpoint_dir, workers=2, backoff_base=0.05
        ) as pool:
            generation = pool.stats()["worker_set_generation"]
            _killing_the_last_loader(pool)
            with pytest.raises(SupervisorError):
                pool.reload(other)
            assert _wait(
                lambda: all(
                    w["state"] == "ready" for w in pool.stats()["workers"]
                )
            ), pool.stats()
            assert pool.reload(again) == generation + 1
            answers = [pool.estimate_batch(queries) for _ in range(3)]
        for values in answers:
            np.testing.assert_allclose(values, old, rtol=1e-6)


def _environ(pid):
    with open(f"/proc/{pid}/environ", "rb") as handle:
        entries = handle.read().split(b"\0")
    return dict(
        entry.decode().split("=", 1) for entry in entries if b"=" in entry
    )


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads a worker's environment from /proc",
)
@pytest.mark.parametrize("preset", [None, "3"])
def test_workers_spawn_with_a_blas_thread_budget(
    snapshot_dir, checkpoint_dir, monkeypatch, preset
):
    """Each worker gets cores // workers BLAS threads unless this
    process already chose a value; this process's environment is
    left as it was."""
    for name in BLAS_THREAD_VARS:
        if preset is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, preset)
    with SupervisedPool(snapshot_dir, checkpoint_dir, workers=2) as pool:
        environs = [_environ(w.process.pid) for w in pool._workers]
    expected = preset or str(max(1, available_cpus() // 2))
    for environ in environs:
        assert {name: environ.get(name) for name in BLAS_THREAD_VARS} == {
            name: expected for name in BLAS_THREAD_VARS
        }
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARS} == {
        name: preset for name in BLAS_THREAD_VARS
    }
