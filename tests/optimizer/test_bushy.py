"""Tests for bushy join trees and the left-deep/bushy comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.optimizer import (
    BushyPlan,
    bushy_best_plan,
    left_deep_best_plan,
    left_deep_vs_bushy,
    true_cost_fn,
)
from repro.rdf import TripleStore
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


def chain_of(size, preds=None):
    preds = preds or list(range(1, size + 1))
    terms = []
    for i in range(size):
        terms.extend([Variable(f"n{i}"), preds[i]])
    terms.append(Variable(f"n{size}"))
    return chain_pattern(terms)


def random_store(seed, triples=60, nodes=12, preds=4):
    rng = np.random.default_rng(seed)
    store = TripleStore()
    for _ in range(triples):
        store.add(
            int(rng.integers(1, nodes)),
            int(rng.integers(1, preds + 1)),
            int(rng.integers(1, nodes)),
        )
    return store


class TestBushyPlanStructure:
    def test_leaf_properties(self):
        leaf = BushyPlan(cost=0.0, leaf=3)
        assert leaf.is_leaf
        assert leaf.indices() == (3,)
        assert leaf.depth() == 1
        assert leaf.is_left_deep()
        assert leaf.render() == "3"

    def test_join_node_properties(self):
        left = BushyPlan(cost=0.0, leaf=0)
        right = BushyPlan(cost=0.0, leaf=1)
        join = BushyPlan(cost=5.0, left=left, right=right)
        assert not join.is_leaf
        assert join.indices() == (0, 1)
        assert join.depth() == 2
        assert join.is_left_deep()
        assert join.render() == "(0 x 1)"

    def test_bushy_tree_is_not_left_deep(self):
        quad = BushyPlan(
            cost=0.0,
            left=BushyPlan(
                cost=0.0,
                left=BushyPlan(cost=0.0, leaf=0),
                right=BushyPlan(cost=0.0, leaf=1),
            ),
            right=BushyPlan(
                cost=0.0,
                left=BushyPlan(cost=0.0, leaf=2),
                right=BushyPlan(cost=0.0, leaf=3),
            ),
        )
        assert not quad.is_left_deep()
        assert quad.indices() == (0, 1, 2, 3)


class TestOptimality:
    def test_single_pattern(self, tiny_store):
        q = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        plan = bushy_best_plan(q, true_cost_fn(tiny_store))
        assert plan.is_leaf
        assert plan.cost == 0.0

    def test_two_patterns_any_tree_same_cost(self, tiny_store):
        # With join-output accounting, both 2-pattern plans cost
        # card(full) — the DP must still produce a valid tree.
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        oracle = true_cost_fn(tiny_store)
        plan = bushy_best_plan(q, oracle)
        assert plan.indices() == (0, 1)
        assert plan.cost == oracle(q)

    def test_plan_covers_all_patterns(self, lubm_store):
        preds = lubm_store.predicates()[:4]
        q = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        plan = bushy_best_plan(q, true_cost_fn(lubm_store))
        assert plan.indices() == (0, 1, 2, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bushy_never_worse_than_left_deep(self, seed):
        store = random_store(seed)
        q = chain_of(4, preds=[1, 2, 3, 4])
        oracle = true_cost_fn(store)
        left_deep, bushy = left_deep_vs_bushy(q, oracle)
        assert bushy <= left_deep + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_left_deep_restriction_really_restricts(self, seed):
        store = random_store(seed)
        q = chain_of(4, preds=[1, 2, 3, 4])
        plan = left_deep_best_plan(q, true_cost_fn(store))
        assert plan.is_left_deep()

    def test_bushy_wins_on_a_crafted_chain(self):
        """Two selective ends, one huge middle join: bushy joins the
        halves first; left-deep must drag a big intermediate along."""
        store = TripleStore()
        # Segment 1 (p1): 2 edges into a hub layer.
        for i in range(2):
            store.add(100 + i, 1, 200)
        # Segment 2 (p2): hub 200 fans out to 30 nodes.
        for i in range(30):
            store.add(200, 2, 300 + i)
        # Segment 3 (p3): every 300-node reaches hub 400.
        for i in range(30):
            store.add(300 + i, 3, 400)
        # Segment 4 (p4): 400 reaches 2 sinks.
        for i in range(2):
            store.add(400, 4, 500 + i)
        q = chain_of(4)
        oracle = true_cost_fn(store)
        left_deep, bushy = left_deep_vs_bushy(q, oracle)
        assert bushy <= left_deep

    def test_disconnected_query_still_plans(self, tiny_store):
        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(v("c"), 3, v("d")),
            ]
        )
        plan = bushy_best_plan(q, true_cost_fn(tiny_store))
        assert plan.indices() == (0, 1)


class TestAccountingConsistency:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_left_deep_tree_cost_is_sum_of_join_outputs(self, seed):
        store = random_store(seed)
        q = chain_of(3, preds=[1, 2, 3])
        oracle = true_cost_fn(store)
        plan = left_deep_best_plan(q, oracle)

        def join_outputs(node):
            if node.is_leaf:
                return 0.0
            indices = node.indices()
            sub = QueryPattern([q.triples[i] for i in indices])
            return (
                oracle(sub)
                + join_outputs(node.left)
                + join_outputs(node.right)
            )

        assert plan.cost == pytest.approx(join_outputs(plan))


class TestBushyExecution:
    """The hash-join executor measures what the bushy C_out predicts."""

    def test_result_matches_exact_count(self, tiny_store):
        from ext.optimizer import bushy_best_plan, execute_plan
        from repro.rdf import count_bgp

        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        plan = bushy_best_plan(q, true_cost_fn(tiny_store))
        execution = execute_plan(tiny_store, q, plan)
        assert execution.result_size == count_bgp(tiny_store, q)

    def test_measured_cout_equals_plan_cost(self, tiny_store):
        from ext.optimizer import bushy_best_plan, execute_plan

        q = chain_pattern([v("x"), 1, v("y"), 2, v("z"), 3, v("w")])
        oracle = true_cost_fn(tiny_store)
        plan = bushy_best_plan(q, oracle)
        execution = execute_plan(tiny_store, q, plan)
        assert execution.cout == pytest.approx(plan.cost)
        assert execution.rendered == plan.render()

    def test_rejects_partial_plan(self, tiny_store):
        from ext.optimizer import BushyPlan, execute_plan

        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        with pytest.raises(ValueError, match="cover exactly"):
            execute_plan(
                tiny_store, q, BushyPlan(cost=0.0, leaf=0)
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_execution_agrees_with_matcher_property(self, seed):
        from ext.optimizer import bushy_best_plan, execute_plan
        from repro.rdf import count_bgp

        store = random_store(seed)
        q = chain_of(4, preds=[1, 2, 3, 4])
        oracle = true_cost_fn(store)
        plan = bushy_best_plan(q, oracle)
        execution = execute_plan(store, q, plan)
        assert execution.result_size == count_bgp(store, q)
        assert execution.cout == pytest.approx(plan.cost)

    def test_disconnected_cross_product(self, tiny_store):
        from ext.optimizer import bushy_best_plan, execute_plan
        from repro.rdf import count_bgp

        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(v("c"), 3, v("d")),
            ]
        )
        plan = bushy_best_plan(q, true_cost_fn(tiny_store))
        execution = execute_plan(tiny_store, q, plan)
        assert execution.result_size == count_bgp(tiny_store, q)

    def test_repeated_variable_across_subtrees(self, tiny_store):
        from ext.optimizer import BushyPlan, execute_plan
        from repro.rdf import count_bgp

        # Star: both arms share ?x; join on it.
        q = star_pattern(v("x"), [(1, v("a")), (2, 4)])
        plan = BushyPlan(
            cost=0.0,
            left=BushyPlan(cost=0.0, leaf=0),
            right=BushyPlan(cost=0.0, leaf=1),
        )
        execution = execute_plan(tiny_store, q, plan)
        assert execution.result_size == count_bgp(tiny_store, q)
