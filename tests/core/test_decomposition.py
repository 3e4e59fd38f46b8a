"""Tests for composite-query decomposition and estimate combination."""

import pytest

from repro.core.decomposition import (
    classified_components,
    combine_estimates,
    shared_variables,
)
from repro.rdf.pattern import (
    QueryPattern,
    Topology,
    chain_pattern,
    star_pattern,
)
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


def components_of(query):
    """The components of *query*, without their topologies."""
    return [c for c, _ in classified_components(query, query.topology())]


class TestDecompose:
    def test_star_passes_through(self):
        q = star_pattern(v("x"), [(1, v("y")), (2, v("z"))])
        assert components_of(q) == [q]

    def test_chain_passes_through(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert components_of(q) == [q]

    def test_star_plus_tail(self):
        """A star with a chain hop off one arm splits into both parts."""
        q = QueryPattern(
            [
                TriplePattern(v("x"), 1, v("y")),
                TriplePattern(v("x"), 2, v("z")),
                TriplePattern(v("z"), 3, v("w")),
            ]
        )
        parts = components_of(q)
        assert len(parts) == 2
        topologies = sorted(p.topology().value for p in parts)
        assert topologies == ["single", "star"]

    def test_flower_splits_into_star_and_chain(self):
        q = QueryPattern(
            [
                TriplePattern(v("x"), 1, v("y")),
                TriplePattern(v("x"), 2, v("z")),
                TriplePattern(v("z"), 3, v("w")),
                TriplePattern(v("w"), 4, v("u")),
            ]
        )
        parts = components_of(q)
        kinds = sorted(p.topology().value for p in parts)
        assert kinds == ["chain", "star"]
        chain = next(p for p in parts if p.topology() is Topology.CHAIN)
        assert chain.size == 2

    def test_all_triples_preserved(self):
        q = QueryPattern(
            [
                TriplePattern(v("x"), 1, v("y")),
                TriplePattern(v("x"), 2, v("z")),
                TriplePattern(v("z"), 3, v("w")),
            ]
        )
        parts = components_of(q)
        total = sum(p.size for p in parts)
        assert total == q.size


class TestSharedVariables:
    def test_join_variable_found(self):
        star = star_pattern(v("x"), [(1, v("y")), (2, v("z"))])
        tail = QueryPattern([TriplePattern(v("z"), 3, v("w"))])
        shared = shared_variables([star, tail])
        assert shared == {v("z"): 2}

    def test_disjoint_components(self):
        a = star_pattern(v("x"), [(1, v("y")), (2, 5)])
        b = QueryPattern([TriplePattern(v("u"), 3, v("w"))])
        assert shared_variables([a, b]) == {}


class TestCombine:
    def test_independent_components_multiply(self, tiny_store):
        a = star_pattern(v("x"), [(1, v("y")), (2, 4)])
        b = QueryPattern([TriplePattern(v("u"), 3, v("w"))])
        combined = combine_estimates(tiny_store, [a, b], [3.0, 2.0])
        assert combined == 6.0

    def test_shared_variable_divides_by_domain(self, tiny_store):
        star = star_pattern(v("x"), [(1, v("y")), (2, v("z"))])
        tail = QueryPattern([TriplePattern(v("z"), 3, v("w"))])
        combined = combine_estimates(tiny_store, [star, tail], [6.0, 2.0])
        assert combined == pytest.approx(12.0 / tiny_store.num_nodes)

    def test_validation(self, tiny_store):
        with pytest.raises(ValueError):
            combine_estimates(tiny_store, [], [])
        with pytest.raises(ValueError):
            combine_estimates(
                tiny_store,
                [star_pattern(v("x"), [(1, 2), (2, 3)])],
                [1.0, 2.0],
            )
