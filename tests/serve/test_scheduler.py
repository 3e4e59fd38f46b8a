"""BatchScheduler: coalescing, flush policy, backpressure, failure."""

import threading
import types

import numpy as np
import pytest

from repro.serve.scheduler import (
    BatchScheduler,
    QueueFullError,
    SchedulerClosedError,
)


class RecordingEstimator:
    """estimate_batch stub: answers float(query), records call widths."""

    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, queries):
        with self.lock:
            self.calls.append(len(queries))
        return np.array([float(q) for q in queries])


class GatedEstimator(RecordingEstimator):
    """Blocks inside the first call until released — lets a test pile
    requests up behind a deterministic in-flight batch."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()
        self._first = True

    def __call__(self, queries):
        first = self._first
        self._first = False
        if first:
            self.entered.set()
            assert self.gate.wait(10.0)
        return super().__call__(queries)


@pytest.fixture
def scheduler_factory():
    made = []

    def make(fn, **kwargs):
        scheduler = BatchScheduler(fn, **kwargs)
        made.append(scheduler)
        return scheduler

    yield make
    for scheduler in made:
        scheduler.close()


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(
        self, scheduler_factory
    ):
        """K requests queued behind an in-flight batch are answered by
        ONE estimate_batch call."""
        estimator = GatedEstimator()
        scheduler = scheduler_factory(estimator, max_batch=64)
        blocker = scheduler.submit_async([1.0])
        assert estimator.entered.wait(5.0)
        # The worker is stuck inside call #1; these 5 requests pile up.
        futures = [
            scheduler.submit_async([float(i), float(i) + 0.5])
            for i in range(5)
        ]
        estimator.gate.set()
        assert blocker.result(10.0).tolist() == [1.0]
        for i, future in enumerate(futures):
            assert future.result(10.0).tolist() == [
                float(i),
                float(i) + 0.5,
            ]
        # call 1: the blocker alone; call 2: all five requests together.
        assert estimator.calls == [1, 10]
        stats = scheduler.stats()
        assert stats["batches"] == 2
        assert stats["coalesced_requests"] == 5
        assert stats["max_batch_seen"] == 10

    def test_results_split_back_per_request(self, scheduler_factory):
        estimator = RecordingEstimator()
        scheduler = scheduler_factory(estimator)
        a = scheduler.submit([7.0, 8.0])
        b = scheduler.submit([9.0])
        assert a.tolist() == [7.0, 8.0]
        assert b.tolist() == [9.0]

    def test_empty_request_short_circuits(self, scheduler_factory):
        estimator = RecordingEstimator()
        scheduler = scheduler_factory(estimator)
        assert scheduler.submit([]).size == 0
        assert estimator.calls == []


class TestFlushPolicy:
    def test_lone_request_dispatches_without_a_timed_wait(
        self, scheduler_factory, monkeypatch
    ):
        """Work-conserving dispatch: a request on an idle scheduler
        reaches the backend alone and at once — the worker thread never
        waits on its condition variable with a timeout (a coalescing
        window would be such a wait)."""
        import repro.serve.scheduler as scheduler_module

        spies = []

        class SpyCondition(threading.Condition):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.timeouts = []
                spies.append(self)

            def wait(self, timeout=None):
                self.timeouts.append(timeout)
                return super().wait(timeout)

        monkeypatch.setattr(
            scheduler_module,
            "threading",
            types.SimpleNamespace(
                Condition=SpyCondition, Thread=threading.Thread
            ),
        )
        estimator = RecordingEstimator()
        scheduler = scheduler_factory(estimator, max_batch=1024)
        assert scheduler.submit([3.0], timeout=10.0).tolist() == [3.0]
        assert scheduler.submit([4.0], timeout=10.0).tolist() == [4.0]
        assert estimator.calls == [1, 1]
        (spy,) = spies
        assert all(timeout is None for timeout in spy.timeouts)

    def test_max_batch_caps_a_batch(self, scheduler_factory):
        """Pending work beyond max_batch splits into capped batches."""
        estimator = GatedEstimator()
        scheduler = scheduler_factory(estimator, max_batch=4)
        blocker = scheduler.submit_async([0.0])
        assert estimator.entered.wait(5.0)
        futures = [
            scheduler.submit_async([float(i)]) for i in range(1, 11)
        ]
        estimator.gate.set()
        blocker.result(10.0)
        for i, future in enumerate(futures, start=1):
            assert future.result(10.0).tolist() == [float(i)]
        assert estimator.calls[0] == 1
        assert all(width <= 4 for width in estimator.calls[1:])
        assert sum(estimator.calls) == 11

    def test_oversized_request_stays_atomic(self, scheduler_factory):
        """A single request larger than max_batch is never split."""
        estimator = RecordingEstimator()
        scheduler = scheduler_factory(estimator, max_batch=2)
        result = scheduler.submit([float(i) for i in range(7)])
        assert result.tolist() == [float(i) for i in range(7)]
        assert 7 in estimator.calls


class TestBackpressure:
    def test_queue_full_rejects(self, scheduler_factory):
        estimator = GatedEstimator()
        scheduler = scheduler_factory(
            estimator, max_batch=1, max_queue=2
        )
        blocker = scheduler.submit_async([1.0])
        assert estimator.entered.wait(5.0)
        scheduler.submit_async([2.0, 3.0])  # fills the queue
        with pytest.raises(QueueFullError):
            scheduler.submit_async([4.0])
        assert scheduler.stats()["rejected"] == 1
        estimator.gate.set()
        blocker.result(10.0)

    def test_oversized_request_admitted_when_idle(
        self, scheduler_factory
    ):
        """A request larger than max_queue is not permanently
        unservable: an empty queue admits it (429 = retryable)."""
        estimator = RecordingEstimator()
        scheduler = scheduler_factory(estimator, max_queue=2)
        result = scheduler.submit(
            [float(i) for i in range(5)], timeout=10.0
        )
        assert result.tolist() == [float(i) for i in range(5)]

    def test_nan_from_backend_is_a_contract_error(
        self, scheduler_factory
    ):
        from repro.core.estimator import EstimatorContractError

        scheduler = scheduler_factory(
            lambda queries: np.array([float("nan")])
        )
        with pytest.raises(EstimatorContractError, match="non-finite"):
            scheduler.submit([1.0], timeout=10.0)

    def test_submit_after_close_rejected(self):
        scheduler = BatchScheduler(RecordingEstimator())
        scheduler.close()
        with pytest.raises(SchedulerClosedError):
            scheduler.submit([1.0])

    def test_close_drains_pending(self):
        estimator = GatedEstimator()
        scheduler = BatchScheduler(estimator, max_batch=1)
        blocker = scheduler.submit_async([1.0])
        assert estimator.entered.wait(5.0)
        tail = scheduler.submit_async([2.0])
        estimator.gate.set()
        scheduler.close()
        assert blocker.result(1.0).tolist() == [1.0]
        assert tail.result(1.0).tolist() == [2.0]


class TestFailures:
    def test_estimator_error_reaches_every_request(
        self, scheduler_factory
    ):
        boom = RuntimeError("model exploded")

        def failing(queries):
            raise boom

        scheduler = scheduler_factory(failing)
        future = scheduler.submit_async([1.0])
        with pytest.raises(RuntimeError, match="model exploded"):
            future.result(10.0)
        assert scheduler.stats()["errors"] == 1

    def test_poisoned_batch_fails_only_the_offender(
        self, scheduler_factory
    ):
        """A request that makes the coalesced batch raise must not take
        its co-batched neighbours down with it."""
        gate = threading.Event()
        entered = threading.Event()
        state = {"first": True}

        def fn(queries):
            if state["first"]:
                state["first"] = False
                entered.set()
                assert gate.wait(10.0)
                return np.array([float(q) for q in queries])
            if "bad" in queries:
                raise RuntimeError("poison")
            return np.array([float(q) for q in queries])

        scheduler = scheduler_factory(fn, max_batch=64)
        blocker = scheduler.submit_async([0.0])
        assert entered.wait(5.0)
        good = scheduler.submit_async([1.0])
        bad = scheduler.submit_async(["bad"])
        also_good = scheduler.submit_async([2.0])
        gate.set()
        assert blocker.result(10.0).tolist() == [0.0]
        assert good.result(10.0).tolist() == [1.0]
        with pytest.raises(RuntimeError, match="poison"):
            bad.result(10.0)
        assert also_good.result(10.0).tolist() == [2.0]
        assert scheduler.stats()["errors"] == 1

    def test_wrong_shape_is_an_error(self, scheduler_factory):
        scheduler = scheduler_factory(lambda queries: np.zeros(0))
        with pytest.raises(RuntimeError, match="shape"):
            scheduler.submit([1.0], timeout=10.0)

    def test_bad_policy_rejected(self):
        fn = RecordingEstimator()
        with pytest.raises(ValueError):
            BatchScheduler(fn, max_batch=0)
        with pytest.raises(ValueError):
            BatchScheduler(fn, max_queue=0)


class TestStats:
    def test_counters_and_latency(self, scheduler_factory):
        scheduler = scheduler_factory(RecordingEstimator())
        for i in range(4):
            scheduler.submit([float(i)])
        stats = scheduler.stats()
        assert stats["requests"] == 4
        assert stats["queries"] == 4
        assert stats["batches"] >= 1
        assert stats["queue_depth"] == 0
        assert stats["latency_ms"]["p50"] >= 0.0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        assert stats["policy"]["max_batch"] == 64
