"""Unit tests for query patterns and topology classification."""

import pytest

from repro.rdf.pattern import (
    QueryPattern,
    Topology,
    chain_pattern,
    star_pattern,
)
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QueryPattern([])

    def test_size_and_join_count(self):
        q = star_pattern(v("x"), [(1, 2), (3, 4)])
        assert q.size == 2
        assert q.join_count() == 1

    def test_star_constructor(self):
        q = star_pattern(v("x"), [(1, v("y")), (2, 5)])
        assert q.triples[0] == TriplePattern(v("x"), 1, v("y"))
        assert q.triples[1] == TriplePattern(v("x"), 2, 5)

    def test_chain_constructor(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert q.triples == (
            TriplePattern(v("a"), 1, v("b")),
            TriplePattern(v("b"), 2, v("c")),
        )

    def test_chain_constructor_rejects_even_length(self):
        with pytest.raises(ValueError):
            chain_pattern([v("a"), 1])

    def test_variables_first_occurrence_order(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert q.variables == (v("a"), v("b"), v("c"))


class TestTopology:
    def test_single(self):
        q = QueryPattern([TriplePattern(v("x"), 1, 2)])
        assert q.topology() is Topology.SINGLE

    def test_star(self):
        q = star_pattern(v("x"), [(1, v("y")), (2, v("z"))])
        assert q.topology() is Topology.STAR
        assert q.is_star()
        assert not q.is_chain()

    def test_star_with_bound_centre(self):
        q = star_pattern(7, [(1, v("y")), (2, v("z"))])
        assert q.topology() is Topology.STAR

    def test_chain(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert q.topology() is Topology.CHAIN
        assert q.is_chain()
        assert not q.is_star()

    def test_composite(self):
        # Star of two triples plus a chain hop off one arm.
        q = QueryPattern(
            [
                TriplePattern(v("x"), 1, v("y")),
                TriplePattern(v("x"), 2, v("z")),
                TriplePattern(v("z"), 3, v("w")),
            ]
        )
        assert q.topology() is Topology.COMPOSITE

    def test_two_triple_chain_not_star(self):
        q = chain_pattern([v("a"), 1, v("b"), 1, v("c")])
        assert q.topology() is Topology.CHAIN


class TestOrdering:
    def test_star_node_order_centre_first(self):
        q = star_pattern(v("x"), [(1, v("y")), (2, 9)])
        assert q.node_order() == [v("x"), v("y"), 9]

    def test_chain_node_order_follows_walk(self):
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert q.node_order() == [v("a"), v("b"), v("c")]


class TestCanonicalKey:
    def test_variable_names_do_not_matter(self):
        q1 = star_pattern(v("x"), [(1, v("y"))])
        q2 = star_pattern(v("a"), [(1, v("b"))])
        assert q1.canonical_key() == q2.canonical_key()

    def test_terms_do_matter(self):
        q1 = star_pattern(v("x"), [(1, 5)])
        q2 = star_pattern(v("x"), [(1, 6)])
        assert q1.canonical_key() != q2.canonical_key()

    def test_shared_structure_preserved(self):
        shared = chain_pattern([v("a"), 1, v("b"), 2, v("b")])
        distinct = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        assert shared.canonical_key() != distinct.canonical_key()
