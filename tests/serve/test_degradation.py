"""Degraded serving still honours the Estimator contract.

Property-based: whatever batch the scheduler hands a degraded backend,
the fallback's answers must be finite, non-negative, float64, and in
input order — a degraded estimate may be *worse*, never *malformed*.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.independence import IndependenceEstimator
from repro.serve.supervisor import (
    CircuitBreaker,
    ResilientBackend,
    SupervisorError,
)


@pytest.fixture(scope="module")
def fallback(service):
    return IndependenceEstimator(service.store)


@pytest.fixture(scope="module")
def query_pool(service, star_queries):
    """Mixed pool: covered stars plus shapes the models never saw."""
    from repro.sampling import generate_workload

    pool = list(star_queries)
    for shape, size in [("chain", 2), ("star", 3), ("chain", 3)]:
        workload = generate_workload(
            service.store, shape, size, 10, seed=31
        )
        pool.extend(record.query for record in workload)
    return pool


def _degraded_backend(fallback):
    def primary(queries):
        raise SupervisorError("primary is down")

    return ResilientBackend(
        primary,
        fallback=fallback.estimate_batch,
        breaker=CircuitBreaker(failure_threshold=1),
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_degraded_batches_satisfy_estimator_contract(
    data, fallback, query_pool
):
    backend = _degraded_backend(fallback)
    batch = data.draw(
        st.lists(
            st.sampled_from(query_pool), min_size=1, max_size=16
        )
    )
    values, meta = backend(batch)
    assert meta["degraded"] is True
    assert meta["backend"] == "fallback"
    assert isinstance(values, np.ndarray)
    assert values.shape == (len(batch),)
    assert values.dtype == np.float64
    assert np.isfinite(values).all()
    assert (values >= 0).all()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_degraded_values_are_deterministic_and_order_preserving(
    data, fallback, query_pool
):
    backend = _degraded_backend(fallback)
    batch = data.draw(
        st.lists(st.sampled_from(query_pool), min_size=2, max_size=8)
    )
    first, _ = backend(batch)
    again, _ = backend(batch)
    np.testing.assert_array_equal(first, again)
    # per-query values are position-independent: reversing the batch
    # reverses the answers
    rev, _ = backend(list(reversed(batch)))
    np.testing.assert_array_equal(rev, first[::-1])


def test_fallback_covers_shapes_the_models_reject(
    service, fallback, query_pool
):
    """The degradation path answers queries admission would 422 —
    an uncovered shape is still *estimable*, just less accurately."""
    from repro.serve.admission import ShapeManifest

    manifest = ShapeManifest.from_framework(service.framework)
    uncovered = [
        q for q in query_pool if manifest.rejection_reason(q)
    ]
    assert uncovered, "pool should contain uncovered shapes"
    values = fallback.estimate_batch(uncovered)
    assert np.isfinite(values).all()
    assert (values >= 0).all()


def test_scheduler_surfaces_degraded_meta(fallback, star_queries):
    """End-to-end through the scheduler: submit_with_meta carries the
    degradation flag the HTTP layer serialises."""
    from repro.serve.scheduler import BatchScheduler

    backend = _degraded_backend(fallback)
    scheduler = BatchScheduler(backend, max_batch=8)
    try:
        values, meta = scheduler.submit_with_meta(star_queries[:4])
        assert values.shape == (4,)
        assert meta["degraded"] is True
        assert meta["generation"] == 1
    finally:
        scheduler.close()
