"""Tests for join-order plan structures and connectivity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.optimizer import (
    connected_orders,
    is_connected_order,
    prefix_patterns,
)
from ext.optimizer.plans import JoinPlan, pattern_variables
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


class TestConnectivity:
    def test_chain_in_order_is_connected(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert is_connected_order(q, (0, 1))
        assert is_connected_order(q, (1, 0))

    def test_disjoint_patterns_are_disconnected(self):
        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(v("c"), 2, v("d")),
            ]
        )
        assert not is_connected_order(q, (0, 1))

    def test_fully_bound_pattern_never_breaks_connectivity(self):
        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(1, 2, 3),
            ]
        )
        assert is_connected_order(q, (0, 1))
        assert is_connected_order(q, (1, 0))

    def test_three_step_chain_requires_adjacency(self):
        # Joining the two chain ends first is a cross product.
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c"), 3, v("d")])
        assert not is_connected_order(q, (0, 2, 1))
        assert is_connected_order(q, (0, 1, 2))
        assert is_connected_order(q, (1, 0, 2))
        assert is_connected_order(q, (2, 1, 0))


class TestConnectedOrders:
    def test_star_all_orders_connected(self):
        q = star_pattern(v("x"), [(1, v("a")), (2, v("b")), (3, v("c"))])
        assert len(list(connected_orders(q))) == 6

    def test_chain_filters_cross_products(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c"), 3, v("d")])
        orders = list(connected_orders(q))
        assert all(is_connected_order(q, o) for o in orders)
        # 3-pattern chain: orders starting at an end or the middle —
        # (0,1,2),(1,0,2),(1,2,0),(2,1,0) are the connected ones.
        assert sorted(orders) == [
            (0, 1, 2),
            (1, 0, 2),
            (1, 2, 0),
            (2, 1, 0),
        ]

    def test_disconnected_query_falls_back_to_all_orders(self):
        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(v("c"), 2, v("d")),
            ]
        )
        assert sorted(connected_orders(q)) == [(0, 1), (1, 0)]


class TestPrefixPatterns:
    def test_prefixes_grow_one_pattern_at_a_time(self):
        q = star_pattern(v("x"), [(1, v("a")), (2, v("b")), (3, v("c"))])
        prefixes = prefix_patterns(q, (2, 0, 1))
        assert [len(p.triples) for p in prefixes] == [1, 2, 3]
        assert prefixes[0].triples[0] is q.triples[2]
        assert prefixes[-1].size == q.size

    def test_prefix_respects_order(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        prefixes = prefix_patterns(q, (1, 0))
        assert prefixes[0].triples == (q.triples[1],)
        assert prefixes[1].triples == (q.triples[1], q.triples[0])


class TestJoinPlan:
    def test_len_is_order_length(self):
        plan = JoinPlan(order=(2, 0, 1), cost=5.0)
        assert len(plan) == 3

    def test_pattern_variables_indexes_by_pattern(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        variables = pattern_variables(q)
        assert variables[0] == {v("a"), v("b")}
        assert variables[1] == {v("b"), v("c")}


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.randoms())
def test_connected_orders_are_valid_permutations(size, rand):
    terms = []
    for i in range(size):
        terms.extend([Variable(f"n{i}"), i + 1])
    terms.append(Variable(f"n{size}"))
    q = chain_pattern(terms)
    for order in connected_orders(q):
        assert sorted(order) == list(range(size))
        assert is_connected_order(q, order)
