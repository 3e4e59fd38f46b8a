"""Tests for the plan-quality harness."""

import math

import pytest

from ext.optimizer import plan_quality
from ext.optimizer.quality import (
    PlanQualityReport,
    QueryPlanOutcome,
    plan_query,
)
from repro.baselines import IndependenceEstimator
from repro.core.estimator import Estimator
from repro.rdf.fastcount import count_query
from repro.rdf.pattern import QueryPattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


class OracleEstimator(Estimator):
    """Answers with the exact count — must plan perfectly."""

    name = "oracle"

    def __init__(self, store):
        self.store = store

    def estimate(self, query):
        return float(count_query(self.store, query))


class AdversarialEstimator(Estimator):
    """Returns the negated true count, inverting every comparison."""

    name = "adversarial"

    def __init__(self, store):
        self.store = store

    def estimate(self, query):
        # Clamping in estimator_cost_fn floors this at 0, making all
        # prefixes look free — the optimizer picks arbitrarily.
        return -float(count_query(self.store, query))


def star_queries(store, count=5):
    preds = store.predicates()
    queries = []
    for i in range(count):
        chosen = [preds[(i + j) % len(preds)] for j in range(3)]
        queries.append(
            star_pattern(
                v("x"),
                [(p, v(f"o{j}")) for j, p in enumerate(chosen)],
            )
        )
    return queries


class TestPlanQuery:
    def test_oracle_is_always_optimal(self, lubm_store):
        est = OracleEstimator(lubm_store)
        for q in star_queries(lubm_store, 3):
            outcome = plan_query(lubm_store, est, q)
            assert outcome.is_optimal
            assert outcome.suboptimality == pytest.approx(1.0)

    def test_suboptimality_never_below_one(self, lubm_store):
        est = IndependenceEstimator(lubm_store)
        for q in star_queries(lubm_store, 3):
            outcome = plan_query(lubm_store, est, q)
            assert outcome.suboptimality >= 1.0 - 1e-9


class TestOutcome:
    def test_zero_optimal_zero_chosen_is_perfect(self):
        outcome = QueryPlanOutcome(
            chosen_order=(0, 1),
            optimal_order=(1, 0),
            chosen_true_cost=0.0,
            optimal_true_cost=0.0,
        )
        assert outcome.suboptimality == 1.0
        assert outcome.is_optimal

    def test_zero_optimal_positive_chosen_is_infinite(self):
        outcome = QueryPlanOutcome(
            chosen_order=(0, 1),
            optimal_order=(1, 0),
            chosen_true_cost=3.0,
            optimal_true_cost=0.0,
        )
        assert math.isinf(outcome.suboptimality)
        assert not outcome.is_optimal


class TestReport:
    def test_report_aggregates(self, lubm_store):
        est = OracleEstimator(lubm_store)
        report = plan_quality(lubm_store, est, star_queries(lubm_store, 4))
        assert report.fraction_optimal == 1.0
        assert report.mean_suboptimality == pytest.approx(1.0)
        assert report.max_suboptimality == pytest.approx(1.0)
        assert "oracle" in report.summary_row()

    def test_empty_report_is_vacuously_perfect(self):
        report = PlanQualityReport(estimator_name="none", outcomes=[])
        assert report.fraction_optimal == 1.0

    def test_max_size_filters_large_queries(self, lubm_store):
        est = OracleEstimator(lubm_store)
        queries = star_queries(lubm_store, 2)
        report = plan_quality(lubm_store, est, queries, max_size=2)
        assert len(report.outcomes) == 0

    def test_percentile_monotone(self, lubm_store):
        est = IndependenceEstimator(lubm_store)
        report = plan_quality(lubm_store, est, star_queries(lubm_store, 5))
        assert report.percentile(50) <= report.percentile(95) + 1e-12
