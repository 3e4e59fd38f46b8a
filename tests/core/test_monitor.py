"""Tests for workload-shift detection and the adaptive execution loop."""

import pytest

from ext.monitor import (
    AdaptiveLMKG,
    DriftReport,
    WorkloadMonitor,
    total_variation,
)
from repro.core.framework import LMKG
from repro.core.lmkg_s import LMKGSConfig
from repro.rdf.pattern import chain_pattern, star_pattern
from repro.rdf.terms import Variable


def v(name):
    return Variable(name)


class TestTotalVariation:
    def test_identical_distributions(self):
        d = {("star", 2): 0.5, ("chain", 2): 0.5}
        assert total_variation(d, dict(d)) == 0.0

    def test_disjoint_distributions(self):
        a = {("star", 2): 1.0}
        b = {("chain", 3): 1.0}
        assert total_variation(a, b) == 1.0

    def test_partial_overlap(self):
        a = {("star", 2): 1.0}
        b = {("star", 2): 0.5, ("chain", 2): 0.5}
        assert total_variation(a, b) == pytest.approx(0.5)

    def test_symmetry(self):
        a = {("star", 2): 0.7, ("chain", 2): 0.3}
        b = {("star", 2): 0.2, ("star", 3): 0.8}
        assert total_variation(a, b) == pytest.approx(
            total_variation(b, a)
        )


class TestWorkloadMonitor:
    def test_no_drift_before_min_queries(self):
        monitor = WorkloadMonitor(min_queries=10, threshold=0.1)
        monitor.set_reference({("star", 2): 1.0})
        for _ in range(9):
            monitor.observe(("chain", 5))
        assert monitor.check() is None

    def test_no_drift_without_reference(self):
        monitor = WorkloadMonitor(min_queries=1)
        monitor.observe(("star", 2))
        assert monitor.check() is None

    def test_detects_full_shift(self):
        monitor = WorkloadMonitor(min_queries=20, threshold=0.5)
        monitor.set_reference({("star", 2): 1.0})
        for _ in range(30):
            monitor.observe(("chain", 5))
        report = monitor.check()
        assert report is not None
        assert report.distance == pytest.approx(1.0)
        assert ("chain", 5) in report.emerging
        assert ("star", 2) in report.fading

    def test_stable_workload_stays_quiet(self):
        monitor = WorkloadMonitor(min_queries=20, threshold=0.25)
        monitor.set_reference({("star", 2): 0.5, ("chain", 2): 0.5})
        for i in range(100):
            monitor.observe(("star", 2) if i % 2 else ("chain", 2))
        assert monitor.check() is None

    def test_emerging_requires_hot_share(self):
        monitor = WorkloadMonitor(
            min_queries=20, threshold=0.3, hot_share=0.5
        )
        monitor.set_reference({("star", 2): 1.0})
        # Three shapes at ~33% each: drifted, but no single shape is hot.
        for i in range(60):
            monitor.observe(
                [("chain", 3), ("chain", 5), ("star", 8)][i % 3]
            )
        report = monitor.check()
        assert report is not None
        assert report.emerging == ()

    def test_covered_shape_not_emerging(self):
        monitor = WorkloadMonitor(min_queries=10, threshold=0.2)
        monitor.set_reference({("star", 2): 0.9, ("chain", 2): 0.1})
        for _ in range(50):
            monitor.observe(("chain", 2))
        report = monitor.check()
        assert report is not None
        assert ("chain", 2) not in report.emerging
        assert ("star", 2) in report.fading

    def test_window_evicts_old_observations(self):
        monitor = WorkloadMonitor(window_size=10, min_queries=1)
        for _ in range(10):
            monitor.observe(("star", 2))
        for _ in range(10):
            monitor.observe(("chain", 3))
        assert monitor.window_shares() == {("chain", 3): 1.0}

    def test_reset_clears_window(self):
        monitor = WorkloadMonitor(min_queries=1)
        monitor.observe(("star", 2))
        monitor.reset()
        assert monitor.window_shares() == {}

    def test_reference_normalised(self):
        monitor = WorkloadMonitor()
        monitor.set_reference({("star", 2): 2.0, ("chain", 2): 2.0})
        assert monitor.reference == {
            ("star", 2): 0.5,
            ("chain", 2): 0.5,
        }

    def test_uniform_reference_from_shapes(self):
        monitor = WorkloadMonitor()
        monitor.set_reference_from_shapes([("star", 2), ("chain", 3)])
        assert monitor.reference[("star", 2)] == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WorkloadMonitor(threshold=0.0)
        with pytest.raises(ValueError):
            WorkloadMonitor(window_size=0)
        with pytest.raises(ValueError):
            WorkloadMonitor().set_reference({})
        with pytest.raises(ValueError):
            WorkloadMonitor().set_reference_from_shapes([])

    def test_observe_query_extracts_shape(self):
        monitor = WorkloadMonitor(min_queries=1)
        monitor.observe_query(
            star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        )
        assert monitor.window_shares() == {("star", 2): 1.0}


@pytest.fixture(scope="module")
def fitted_framework(lubm_store):
    framework = LMKG(
        lubm_store,
        model_type="supervised",
        grouping="specialized",
        lmkgs_config=LMKGSConfig(epochs=10, hidden_sizes=(32, 32)),
    )
    framework.fit(shapes=[("star", 2)], queries_per_shape=100)
    return framework


class TestAdaptiveLMKG:
    def _star(self, store, size=2):
        preds = store.predicates()[:size]
        return star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )

    def _chain(self, store):
        preds = store.predicates()
        return chain_pattern(
            [v("x"), preds[0], v("y"), preds[1], v("z")]
        )

    def test_reference_inferred_from_framework(
        self, fitted_framework
    ):
        adaptive = AdaptiveLMKG(fitted_framework)
        assert ("star", 2) in adaptive.monitor.reference

    def test_estimates_flow_through(self, fitted_framework, lubm_store):
        adaptive = AdaptiveLMKG(
            fitted_framework,
            WorkloadMonitor(min_queries=10_000),
        )
        adaptive.monitor.set_reference({("star", 2): 1.0})
        estimate = adaptive.estimate(self._star(lubm_store))
        assert estimate >= 0.0
        assert adaptive.events == []

    def test_drift_triggers_model_creation(
        self, fitted_framework, lubm_store
    ):
        monitor = WorkloadMonitor(
            min_queries=20, threshold=0.5, hot_share=0.3
        )
        monitor.set_reference({("star", 2): 1.0})
        adaptive = AdaptiveLMKG(
            fitted_framework, monitor, queries_per_shape=60
        )
        chain_query = self._chain(lubm_store)
        for _ in range(25):
            adaptive.estimate(chain_query)
        # First chain query cold-starts a model; drift then fires.
        assert ("chain", 2) in adaptive.cold_starts
        assert adaptive.events, "drift should have fired"
        # The new model answers chains now.
        key = fitted_framework.grouping.key("chain", 2)
        assert key in fitted_framework.models
        # Reference rolled over to the drifted distribution.
        assert ("chain", 2) in adaptive.monitor.reference

    def test_fading_shape_dropped_for_specialized_grouping(
        self, lubm_store
    ):
        framework = LMKG(
            lubm_store,
            model_type="supervised",
            grouping="specialized",
            lmkgs_config=LMKGSConfig(epochs=5, hidden_sizes=(16, 16)),
        )
        framework.fit(
            shapes=[("star", 2), ("chain", 2)], queries_per_shape=60
        )
        monitor = WorkloadMonitor(
            min_queries=20, threshold=0.4, cold_share=0.01
        )
        monitor.set_reference(
            {("star", 2): 0.5, ("chain", 2): 0.5}
        )
        adaptive = AdaptiveLMKG(framework, monitor)
        star_query = self._star(lubm_store)
        for _ in range(30):
            adaptive.estimate(star_query)
        assert adaptive.events
        event = adaptive.events[0]
        assert ("chain", 2) in event.dropped
        key = framework.grouping.key("chain", 2)
        assert key not in framework.models
