"""The specialised star/chain counters must agree with the matcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from repro.rdf import TripleStore, count_bgp
from repro.rdf.fastcount import count_chain, count_query, count_star
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


triples_strategy = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(1, 8)),
    min_size=1,
    max_size=40,
)


class TestApplicability:
    def test_star_with_unbound_predicate_not_applicable(self, tiny_store):
        q = star_pattern(v("x"), [(v("p"), v("y")), (2, 4)])
        assert count_star(tiny_store, q) is None

    def test_star_with_shared_object_variable_not_applicable(
        self, tiny_store
    ):
        q = star_pattern(v("x"), [(1, v("y")), (2, v("y"))])
        assert count_star(tiny_store, q) is None

    def test_chain_with_cycle_not_applicable(self, tiny_store):
        q = QueryPattern(
            [
                TriplePattern(v("a"), 1, v("b")),
                TriplePattern(v("b"), 2, v("a")),
            ]
        )
        assert count_chain(tiny_store, q) is None

    def test_count_query_falls_back_gracefully(self, tiny_store):
        q = star_pattern(v("x"), [(1, v("y")), (2, v("y"))])
        assert count_query(tiny_store, q) == count_bgp(tiny_store, q)


class TestKnownCounts:
    def test_star(self, tiny_store):
        q = star_pattern(v("x"), [(1, v("y")), (2, 4)])
        assert count_star(tiny_store, q) == 3

    def test_star_bound_centre(self, tiny_store):
        q = star_pattern(1, [(1, v("y")), (2, v("z"))])
        assert count_star(tiny_store, q) == 2

    def test_chain(self, tiny_store):
        q = chain_pattern([v("a"), 2, v("b"), 3, v("c")])
        assert count_chain(tiny_store, q) == 6

    def test_chain_bound_endpoints(self, tiny_store):
        q = chain_pattern([1, 2, v("b"), 3, 5])
        assert count_chain(tiny_store, q) == 1

    def test_single_pattern_via_count_query(self, tiny_store):
        q = QueryPattern([TriplePattern(v("s"), 2, v("o"))])
        assert count_query(tiny_store, q) == 3


class TestAgainstMatcher:
    @given(
        triples_strategy,
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
    )
    @STANDARD_SETTINGS
    def test_star_two_arms(self, triples, p1, p2, unbind1, unbind2):
        store = TripleStore()
        store.add_all(triples)
        o1 = v("y1") if unbind1 else 3
        o2 = v("y2") if unbind2 else 4
        query = star_pattern(v("x"), [(p1, o1), (p2, o2)])
        fast = count_star(store, query)
        assert fast is not None
        assert fast == count_bgp(store, query)

    @given(
        triples_strategy,
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["vvv", "bvv", "vvb", "bvb"]),
    )
    @STANDARD_SETTINGS
    def test_chain_two_hops(self, triples, p1, p2, binding):
        store = TripleStore()
        store.add_all(triples)
        terms = [
            v("a") if binding[0] == "v" else 1,
            p1,
            v("b") if binding[1] == "v" else 2,
            p2,
            v("c") if binding[2] == "v" else 3,
        ]
        query = chain_pattern(terms)
        fast = count_chain(store, query)
        assert fast is not None
        assert fast == count_bgp(store, query)

    @given(triples_strategy, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_three_arm_star(self, triples, p):
        store = TripleStore()
        store.add_all(triples)
        query = star_pattern(
            v("x"), [(1, v("y1")), (2, v("y2")), (p, v("y3"))]
        )
        assert count_star(store, query) == count_bgp(store, query)


class TestOnRealDataset:
    def test_random_queries_agree(self, lubm_store, rng):
        from repro.sampling import generate_workload
        from repro.rdf import matcher

        for topology in ("star", "chain"):
            workload = generate_workload(
                lubm_store, topology, 3, 25, seed=int(rng.integers(1000))
            )
            for record in workload.records:
                assert record.cardinality == matcher.count_bgp(
                    lubm_store, record.query
                )
