"""Integration: the extension subsystems working together end to end.

The original integration suite covers the paper's pipeline (train →
estimate → evaluate).  These tests chain the extensions: learned
estimates driving the join-order optimizer, the compound estimator
inside the adaptive execution loop, and range models over the same
store and workload machinery.
"""

import numpy as np
import pytest

from ext.compound import CompoundEstimator
from ext.monitor import AdaptiveLMKG, WorkloadMonitor
from ext.optimizer import (
    Optimizer,
    cout_cost,
    execute_order,
    plan_quality,
    true_cost_fn,
)
from ext.ranges import (
    LMKGSRange,
    generate_range_workload,
)
from repro.core.framework import LMKG
from repro.core.lmkg_s import LMKGSConfig
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.sampling import generate_workload


@pytest.fixture(scope="module")
def trained_framework(lubm_store):
    framework = LMKG(
        lubm_store,
        model_type="supervised",
        grouping="size",
        lmkgs_config=LMKGSConfig(epochs=25, hidden_sizes=(64, 64)),
    )
    framework.fit(
        shapes=[("star", 2), ("star", 3), ("chain", 2)],
        queries_per_shape=250,
    )
    return framework


class _FrameworkEstimator:
    name = "lmkg-s"

    def __init__(self, framework):
        self.framework = framework

    def estimate(self, query):
        return self.framework.estimate(query)


class TestLearnedPlanning:
    def test_learned_estimates_drive_the_optimizer(
        self, trained_framework, lubm_store
    ):
        workload = generate_workload(
            lubm_store, "star", 3, num_queries=10, seed=44
        )
        estimator = _FrameworkEstimator(trained_framework)
        optimizer = Optimizer(estimator)
        oracle = true_cost_fn(lubm_store)
        for record in workload.records[:5]:
            plan = optimizer.optimize(record.query)
            execution = execute_order(
                lubm_store, record.query, plan.order
            )
            # The chosen plan must compute the correct result and its
            # measured C_out must equal the oracle cost of that order.
            from repro.rdf import count_bgp

            assert execution.result_size == count_bgp(
                lubm_store, record.query
            )
            assert execution.cout == pytest.approx(
                cout_cost(record.query, plan.order, oracle)
            )

    def test_plan_quality_report_over_learned_model(
        self, trained_framework, lubm_store
    ):
        workload = generate_workload(
            lubm_store, "star", 3, num_queries=8, seed=45
        )
        report = plan_quality(
            lubm_store,
            _FrameworkEstimator(trained_framework),
            [r.query for r in workload.records],
        )
        assert len(report.outcomes) == len(workload.records)
        assert report.mean_suboptimality >= 1.0


class TestCompoundInsideAdaptiveLoop:
    def test_adaptive_loop_over_compound_models(
        self, trained_framework, lubm_store
    ):
        lmkg_u = LMKGU(
            lubm_store,
            "star",
            2,
            LMKGUConfig(
                epochs=1,
                hidden_sizes=(16, 16),
                embed_dim=8,
                training_samples=500,
                particles=16,
            ),
        )
        lmkg_u.fit()
        compound = CompoundEstimator(
            trained_framework, lmkg_u, policy="geometric"
        )
        workload = generate_workload(
            lubm_store, "star", 2, num_queries=15, seed=46
        )
        monitor = WorkloadMonitor(min_queries=10**6)
        monitor.set_reference({("star", 2): 1.0})
        for record in workload.records:
            estimate = compound.estimate(record.query)
            monitor.observe_query(record.query)
            assert np.isfinite(estimate)
            assert estimate >= 0.0
        assert monitor.window_shares() == {("star", 2): 1.0}


class TestRangeOverSharedSubstrate:
    def test_range_model_shares_store_and_buckets(self, lubm_store):
        records = generate_range_workload(
            lubm_store, "star", 2, num_queries=80, seed=47
        )
        model = LMKGSRange(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(epochs=10, hidden_sizes=(32, 32)),
        )
        model.fit(records)
        estimates = model.estimate_batch([r.query for r in records])
        assert np.all(np.isfinite(estimates))
        assert np.all(estimates >= 0.0)
