"""Failure injection: degenerate inputs must fail loudly or degrade
gracefully — never return silently wrong answers.

Each test feeds a subsystem the kind of corner a production deployment
eventually hits: empty graphs, single-value domains, constant training
labels, queries outside the trained envelope, duplicate data.
"""

import numpy as np
import pytest

from ext.compound import CompoundEstimator
from ext.monitor import AdaptiveLMKG, WorkloadMonitor
from ext.optimizer import Optimizer, dp_best_order, true_cost_fn
from ext.ranges import (
    EquiDepthHistogram,
    PredicateHistograms,
    RangeQuery,
    count_range_query,
)
from repro.core.framework import LMKG, EstimationError
from repro.core.lmkg_s import LMKGS, LMKGSConfig
from repro.rdf import TripleStore, count_bgp
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable
from repro.sampling import (
    ChainSampler,
    StarSampler,
    generate_workload,
    make_strategy,
)
from repro.sampling.workload import QueryRecord


def v(name):
    return Variable(name)


class TestEmptyAndTinyStores:
    def test_empty_store_counts_zero(self):
        store = TripleStore()
        q = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        assert count_bgp(store, q) == 0

    def test_star_sampler_rejects_empty_store(self):
        with pytest.raises(ValueError):
            StarSampler(TripleStore(), 2)

    def test_chain_sampler_rejects_impossible_length(self):
        store = TripleStore()
        store.add(1, 1, 2)  # no walk of length 2 exists
        with pytest.raises(ValueError, match="no walks"):
            ChainSampler(store, 2)

    def test_single_triple_store_round_trips(self):
        store = TripleStore()
        store.add(1, 1, 2)
        q = QueryPattern([TriplePattern(1, 1, 2)])
        assert count_bgp(store, q) == 1
        plan = dp_best_order(q, true_cost_fn(store))
        assert plan.order == (0,)

    def test_subgraph_strategy_errors_when_no_instances_fit(self):
        # A 2-node graph has no chain of length 3 anywhere.
        store = TripleStore()
        store.add(1, 1, 2)
        strategy = make_strategy("forest_fire", store, "chain", 3)
        with pytest.raises(ValueError):
            strategy.sample_many(5)


class TestDuplicateData:
    def test_duplicate_add_is_idempotent(self):
        store = TripleStore()
        assert store.add(1, 1, 2)
        assert not store.add(1, 1, 2)
        assert store.num_triples == 1
        assert store.count_pattern(TriplePattern(1, 1, v("o"))) == 1

    def test_add_all_reports_only_new(self):
        store = TripleStore()
        added = store.add_all([(1, 1, 2), (1, 1, 2), (2, 1, 3)])
        assert added == 2


class TestDegenerateTraining:
    def test_lmkgs_rejects_empty_workload(self, lubm_store):
        model = LMKGS(lubm_store, ["star"], 2, LMKGSConfig(epochs=1))
        with pytest.raises(ValueError, match="empty workload"):
            model.fit([])

    def test_lmkgs_constant_labels_do_not_crash(self, lubm_store):
        """All training cardinalities equal: the scaler's span is zero."""
        workload = generate_workload(
            lubm_store, "star", 2, num_queries=30, seed=8
        )
        records = [
            QueryRecord(
                query=r.query,
                topology=r.topology,
                size=r.size,
                cardinality=7,
            )
            for r in workload.records[:20]
        ]
        model = LMKGS(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(epochs=3, hidden_sizes=(16, 16)),
        )
        model.fit(records)
        estimate = model.estimate(records[0].query)
        assert np.isfinite(estimate)
        assert estimate >= 0.0

    def test_lmkgs_single_record(self, lubm_store):
        workload = generate_workload(
            lubm_store, "star", 2, num_queries=5, seed=9
        )
        model = LMKGS(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(epochs=2, hidden_sizes=(8, 8)),
        )
        model.fit(workload.records[:1])
        assert np.isfinite(model.estimate(workload.records[0].query))


class TestOutOfEnvelopeQueries:
    def test_framework_rejects_unknown_shape(self, lubm_store):
        framework = LMKG(
            lubm_store,
            model_type="supervised",
            grouping="specialized",
            lmkgs_config=LMKGSConfig(epochs=2, hidden_sizes=(8, 8)),
        )
        framework.fit(shapes=[("star", 2)], queries_per_shape=30)
        preds = lubm_store.predicates()
        big_chain = chain_pattern(
            [v("a"), preds[0], v("b"), preds[1], v("c")]
        )
        with pytest.raises(EstimationError):
            framework.estimate(big_chain)

    def test_adaptive_cold_start_covers_unknown_shape(self, lubm_store):
        framework = LMKG(
            lubm_store,
            model_type="supervised",
            grouping="specialized",
            lmkgs_config=LMKGSConfig(epochs=2, hidden_sizes=(8, 8)),
        )
        framework.fit(shapes=[("star", 2)], queries_per_shape=30)
        adaptive = AdaptiveLMKG(
            framework,
            WorkloadMonitor(min_queries=10**6),
            queries_per_shape=30,
        )
        preds = lubm_store.predicates()
        big_chain = chain_pattern(
            [v("a"), preds[0], v("b"), preds[1], v("c")]
        )
        assert adaptive.estimate(big_chain) >= 0.0
        assert ("chain", 2) in adaptive.cold_starts


class TestHistogramEdgeCases:
    def test_single_distinct_value(self):
        hist = EquiDepthHistogram([5] * 100, num_buckets=8)
        assert hist.selectivity(5, 5) == pytest.approx(1.0)
        assert hist.selectivity(0, 4) == pytest.approx(0.0)
        assert hist.selectivity(6, 10) == pytest.approx(0.0)

    def test_two_values_heavy_and_light(self):
        hist = EquiDepthHistogram([1] * 99 + [2], num_buckets=4)
        assert hist.selectivity(1, 1) >= 0.9

    def test_histograms_on_empty_store(self):
        hists = PredicateHistograms(TripleStore())
        assert hists.selectivity(1, 0, 10) == 0.0
        assert hists.memory_bytes() == 0

    def test_selectivity_never_exceeds_one(self):
        hist = EquiDepthHistogram(list(range(10)) * 3, num_buckets=4)
        assert hist.selectivity(-100, 100) <= 1.0


class TestRangeQueryEdgeCases:
    def test_range_on_empty_store(self):
        store = TripleStore()
        base = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        from ext.ranges import RangeConstraint

        q = RangeQuery(base, (RangeConstraint(0, 0, 100),))
        assert count_range_query(store, q) == 0


class TestOptimizerEdgeCases:
    def test_all_bound_query_plans_trivially(self, tiny_store):
        q = QueryPattern(
            [TriplePattern(1, 1, 2), TriplePattern(4, 3, 5)]
        )
        plan = dp_best_order(q, true_cost_fn(tiny_store))
        assert sorted(plan.order) == [0, 1]
        # C_out charges only the proper prefix: one bound triple = 1 row.
        assert plan.cost == pytest.approx(1.0)

    def test_zero_matches_everywhere(self, tiny_store):
        q = QueryPattern(
            [
                TriplePattern(99, 1, v("a")),
                TriplePattern(v("a"), 1, v("b")),
            ]
        )
        plan = dp_best_order(q, true_cost_fn(tiny_store))
        assert plan.cost == 0.0


class TestCompoundWithFailingModel:
    def test_zero_estimates_floor_at_one_result(self):
        class Zero:
            def estimate(self, query):
                return 0.0

        class Big:
            def estimate(self, query):
                return 100.0

        compound = CompoundEstimator(Zero(), Big(), policy="geometric")
        q = star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        # log floor: geometric mean of 1 and 100 = 10.
        assert compound.estimate(q) == pytest.approx(10.0)
