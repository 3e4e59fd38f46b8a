"""Tests for cost model and join-order enumeration strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.optimizer import (
    Optimizer,
    cout_cost,
    dp_best_order,
    estimator_cost_fn,
    exhaustive_best_order,
    greedy_order,
    true_cost_fn,
)
from repro.baselines import IndependenceEstimator
from repro.rdf import count_bgp
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


def star3(centre="x"):
    return star_pattern(
        v(centre), [(1, v("a")), (2, v("b")), (3, v("c"))]
    )


class TestCoutCost:
    def test_single_pattern_costs_zero(self, tiny_store):
        q = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        assert cout_cost(q, (0,), true_cost_fn(tiny_store)) == 0.0

    def test_cost_sums_proper_prefixes(self, tiny_store):
        # (?x p1 ?y), (?y p2 4): prefix (?x p1 ?y) has 3 matches.
        q = chain_pattern([v("x"), 1, v("y"), 2, 4])
        cost = cout_cost(q, (0, 1), true_cost_fn(tiny_store))
        assert cost == 3.0
        # The other direction: (?y p2 4) alone has 3 matches.
        cost_rev = cout_cost(q, (1, 0), true_cost_fn(tiny_store))
        assert cost_rev == 3.0

    def test_estimator_cost_clamps_negative(self, tiny_store):
        class Negative:
            name = "neg"

            def estimate(self, query):
                return -5.0

        est = Negative()
        fn = estimator_cost_fn.__wrapped__ if hasattr(
            estimator_cost_fn, "__wrapped__"
        ) else estimator_cost_fn
        # estimator_cost_fn only needs .estimate
        model = fn(est)
        q = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        assert model(q) == 0.0


class TestOptimalEnumeration:
    def test_dp_matches_exhaustive_on_oracle(self, lubm_store):
        oracle = true_cost_fn(lubm_store)
        preds = lubm_store.predicates()[:3]
        q = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        dp = dp_best_order(q, oracle)
        ex = exhaustive_best_order(q, oracle)
        assert dp.cost == pytest.approx(ex.cost)

    def test_dp_single_pattern(self, tiny_store):
        q = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        plan = dp_best_order(q, true_cost_fn(tiny_store))
        assert plan.order == (0,)
        assert plan.cost == 0.0

    def test_dp_picks_selective_side_first(self, tiny_store):
        # (?x p1 ?y) has 3 matches; (?y p3 ?z) has 2. Starting from the
        # cheaper pattern is optimal for this chain.
        q = chain_pattern([v("x"), 1, v("y"), 3, v("z")])
        plan = dp_best_order(q, true_cost_fn(tiny_store))
        assert plan.order == (1, 0)
        assert plan.cost == 2.0

    def test_exhaustive_reports_true_minimum(self, tiny_store):
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        oracle = true_cost_fn(tiny_store)
        plan = exhaustive_best_order(q, oracle)
        assert plan.cost == min(
            cout_cost(q, (0, 1), oracle), cout_cost(q, (1, 0), oracle)
        )

    def test_disconnected_query_still_plans(self, tiny_store):
        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(v("c"), 3, v("d")),
            ]
        )
        plan = dp_best_order(q, true_cost_fn(tiny_store))
        assert sorted(plan.order) == [0, 1]
        # Cross product is forced; the cheaper side leads.
        assert plan.cost == 2.0  # (?c p3 ?d) has 2 matches


class TestGreedy:
    def test_greedy_returns_connected_permutation(self, lubm_store):
        preds = lubm_store.predicates()[:4]
        q = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        plan = greedy_order(q, true_cost_fn(lubm_store))
        assert sorted(plan.order) == list(range(4))

    def test_greedy_never_beats_dp(self, lubm_store):
        oracle = true_cost_fn(lubm_store)
        preds = lubm_store.predicates()[:3]
        q = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        greedy = greedy_order(q, oracle)
        dp = dp_best_order(q, oracle)
        assert cout_cost(q, greedy.order, oracle) >= dp.cost


class TestOptimizerFacade:
    def test_accepts_estimator(self, lubm_store):
        est = IndependenceEstimator(lubm_store)
        opt = Optimizer(est)
        preds = lubm_store.predicates()[:2]
        q = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        plan = opt.optimize(q)
        assert sorted(plan.order) == [0, 1]

    def test_accepts_bare_cost_model(self, tiny_store):
        opt = Optimizer(true_cost_fn(tiny_store), strategy="exhaustive")
        q = chain_pattern([v("x"), 1, v("y"), 3, v("z")])
        assert opt.optimize(q).order == (1, 0)

    def test_rejects_unknown_strategy(self, tiny_store):
        with pytest.raises(ValueError, match="unknown strategy"):
            Optimizer(true_cost_fn(tiny_store), strategy="quantum")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dp_equals_exhaustive_property(seed):
    """DP and exhaustive search agree on random small graphs."""
    import numpy as np

    from repro.rdf import TripleStore

    rng = np.random.default_rng(seed)
    store = TripleStore()
    for _ in range(40):
        store.add(
            int(rng.integers(1, 8)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 8)),
        )
    q = chain_pattern([v("x"), 1, v("y"), 2, v("z"), 3, v("w")])
    oracle = true_cost_fn(store)
    assert dp_best_order(q, oracle).cost == pytest.approx(
        exhaustive_best_order(q, oracle).cost
    )
