"""Tests for exact BGP evaluation — the ground-truth oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import TripleStore, count_bgp, iter_bindings
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


class TestSinglePattern:
    def test_bound_pattern_counts_one(self, tiny_store):
        q = QueryPattern([TriplePattern(1, 1, 2)])
        assert count_bgp(tiny_store, q) == 1

    def test_missing_pattern_counts_zero(self, tiny_store):
        q = QueryPattern([TriplePattern(9, 1, 2)])
        assert count_bgp(tiny_store, q) == 0

    def test_single_variable(self, tiny_store):
        q = QueryPattern([TriplePattern(1, 1, v("o"))])
        assert count_bgp(tiny_store, q) == 2


class TestStarQueries:
    def test_two_arm_star(self, tiny_store):
        # ?x with a p1 edge and a p2 edge to 4: subjects 1, 2, 3?
        # 3 has no p1 edge -> subjects 1 (p1 objects {2,3}) and 2 ({3}).
        q = star_pattern(v("x"), [(1, v("y")), (2, 4)])
        assert count_bgp(tiny_store, q) == 3

    def test_bag_semantics_over_distinct_objects(self, tiny_store):
        # Both object variables range over p1-objects of the same subject:
        # subject 1 contributes 2*2, subject 2 contributes 1*1.
        q = star_pattern(v("x"), [(1, v("y")), (1, v("z"))])
        assert count_bgp(tiny_store, q) == 5

    def test_bound_centre(self, tiny_store):
        q = star_pattern(1, [(1, v("y")), (2, v("z"))])
        assert count_bgp(tiny_store, q) == 2


class TestChainQueries:
    def test_two_hop_chain(self, tiny_store):
        # a -p2-> b -p3-> c : (1,2,4),(2,2,4),(3,2,4) x (4,3,5),(4,3,6)
        q = chain_pattern([v("a"), 2, v("b"), 3, v("c")])
        assert count_bgp(tiny_store, q) == 6

    def test_chain_with_bound_tail(self, tiny_store):
        q = chain_pattern([v("a"), 2, v("b"), 3, 5])
        assert count_bgp(tiny_store, q) == 3

    def test_dead_chain(self, tiny_store):
        q = chain_pattern([v("a"), 3, v("b"), 1, v("c")])
        assert count_bgp(tiny_store, q) == 0


class TestBindings:
    def test_iter_bindings_complete(self, tiny_store):
        q = star_pattern(v("x"), [(2, 4)])
        got = {b[v("x")] for b in iter_bindings(tiny_store, q)}
        assert got == {1, 2, 3}

    def test_shared_variable_conflicts_pruned(self, tiny_store):
        # ?x -p1-> ?y and ?y -p2-> 4: y in {2,3} both with p2 edge to 4.
        q = chain_pattern([v("x"), 1, v("y"), 2, 4])
        bindings = list(iter_bindings(tiny_store, q))
        assert len(bindings) == 3
        for b in bindings:
            assert 4 in tiny_store.backend.objects_of(b[v("y")], 2)

    def test_count_matches_enumeration(self, tiny_store):
        q = star_pattern(v("x"), [(1, v("y")), (2, v("z"))])
        assert count_bgp(tiny_store, q) == len(
            list(iter_bindings(tiny_store, q))
        )


def brute_force_count(triples, query):
    """Reference counter: enumerate all variable assignments."""
    triples = set(triples)
    variables = list(dict.fromkeys(
        t for tp in query.triples for t in tp.variables
    ))
    domain = sorted(
        {x for t in triples for x in (t[0], t[2])}
        | {t[1] for t in triples}
    )
    count = 0

    def assign(idx, bindings):
        nonlocal count
        if idx == len(variables):
            for tp in query.triples:
                resolved = tuple(
                    bindings[t] if isinstance(t, Variable) else t
                    for t in tp
                )
                if resolved not in triples:
                    return
            count += 1
            return
        for value in domain:
            bindings[variables[idx]] = value
            assign(idx + 1, bindings)
        del bindings[variables[idx]]

    assign(0, {})
    return count


small_triples = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 2), st.integers(1, 5)),
    min_size=1,
    max_size=15,
)


class TestAgainstBruteForce:
    @given(small_triples, st.integers(1, 2), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_star_counts(self, triples, p2, o2):
        store = TripleStore()
        store.add_all(triples)
        query = star_pattern(v("x"), [(1, v("y")), (p2, o2)])
        assert count_bgp(store, query) == brute_force_count(triples, query)

    @given(small_triples, st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_chain_counts(self, triples, p1, p2):
        store = TripleStore()
        store.add_all(triples)
        query = chain_pattern([v("a"), p1, v("b"), p2, v("c")])
        assert count_bgp(store, query) == brute_force_count(triples, query)

    @given(small_triples)
    @settings(max_examples=30, deadline=None)
    def test_repeated_variable_cycle(self, triples):
        store = TripleStore()
        store.add_all(triples)
        # ?x -1-> ?y -2-> ?x : a cycle, exercises conflict detection.
        query = QueryPattern(
            [
                TriplePattern(v("x"), 1, v("y")),
                TriplePattern(v("y"), 2, v("x")),
            ]
        )
        assert count_bgp(store, query) == brute_force_count(triples, query)
