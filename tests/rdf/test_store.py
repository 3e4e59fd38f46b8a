"""Unit and property tests for the indexed triple store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import TripleStore
from repro.rdf.terms import TriplePattern, Variable, pattern

triples_strategy = st.lists(
    st.tuples(
        st.integers(1, 12), st.integers(1, 4), st.integers(1, 12)
    ),
    max_size=60,
)


def out_edges(store, s):
    preds, objs = store.backend.out_slice(s)
    return list(zip(preds.tolist(), objs.tolist()))


def in_edges(store, o):
    subs, preds = store.backend.in_slice(o)
    return list(zip(subs.tolist(), preds.tolist()))


class TestMutation:
    def test_add_and_len(self, tiny_store):
        assert len(tiny_store) == 8

    def test_duplicate_add_ignored(self, tiny_store):
        assert tiny_store.add(1, 1, 2) is False
        assert len(tiny_store) == 8

    def test_add_all_returns_new_count(self):
        store = TripleStore()
        added = store.add_all([(1, 1, 2), (1, 1, 2), (2, 1, 3)])
        assert added == 2

    def test_contains(self, tiny_store):
        assert (1, 1, 2) in tiny_store
        assert (9, 9, 9) not in tiny_store


class TestAccessors:
    def test_objects_of(self, tiny_store):
        assert tiny_store.backend.objects_of(1, 1).tolist() == [2, 3]
        assert tiny_store.backend.objects_of(1, 3).size == 0

    def test_subjects_of(self, tiny_store):
        assert tiny_store.backend.subjects_of(2, 4).tolist() == [1, 2, 3]

    def test_predicates_between(self, tiny_store):
        assert tiny_store.backend.predicates_between(1, 2).tolist() == [1]

    def test_out_predicates(self, tiny_store):
        assert tiny_store.backend.out_predicates(1).tolist() == [1, 2]

    def test_degrees(self, tiny_store):
        assert tiny_store.out_degree(1) == 3
        assert tiny_store.backend.in_degree(4) == 3
        assert tiny_store.predicate_count(2) == 3

    def test_nodes_sorted_and_complete(self, tiny_store):
        assert tiny_store.nodes() == [1, 2, 3, 4, 5, 6]

    def test_out_edges_flat(self, tiny_store):
        assert out_edges(tiny_store, 1) == [(1, 2), (1, 3), (2, 4)]

    def test_in_edges_flat(self, tiny_store):
        assert in_edges(tiny_store, 4) == [(1, 2), (2, 2), (3, 2)]

    def test_adjacency_cache_invalidated_on_add(self, tiny_store):
        assert out_edges(tiny_store, 5) == []
        tiny_store.add(5, 1, 6)
        assert out_edges(tiny_store, 5) == [(1, 6)]


class TestPatternMatching:
    def test_fully_bound_hit_and_miss(self, tiny_store):
        assert list(tiny_store.match_pattern(pattern(1, 1, 2))) == [
            (1, 1, 2)
        ]
        assert list(tiny_store.match_pattern(pattern(1, 1, 9))) == []

    def test_sp_bound(self, tiny_store):
        got = set(tiny_store.match_pattern(pattern(1, 1, "o")))
        assert got == {(1, 1, 2), (1, 1, 3)}

    def test_po_bound(self, tiny_store):
        got = set(tiny_store.match_pattern(pattern("s", 2, 4)))
        assert got == {(1, 2, 4), (2, 2, 4), (3, 2, 4)}

    def test_so_bound(self, tiny_store):
        got = set(tiny_store.match_pattern(pattern(1, "p", 3)))
        assert got == {(1, 1, 3)}

    def test_s_only(self, tiny_store):
        got = set(tiny_store.match_pattern(pattern(4, "p", "o")))
        assert got == {(4, 3, 5), (4, 3, 6)}

    def test_p_only(self, tiny_store):
        got = set(tiny_store.match_pattern(pattern("s", 3, "o")))
        assert got == {(4, 3, 5), (4, 3, 6)}

    def test_o_only(self, tiny_store):
        got = set(tiny_store.match_pattern(pattern("s", "p", 3)))
        assert got == {(1, 1, 3), (2, 1, 3)}

    def test_all_unbound(self, tiny_store):
        assert len(list(tiny_store.match_pattern(pattern("s", "p", "o")))) == 8

    def test_repeated_variable_so(self):
        store = TripleStore()
        store.add_all([(1, 1, 1), (1, 1, 2)])
        got = list(store.match_pattern(pattern("x", 1, "x")))
        assert got == [(1, 1, 1)]

    def test_count_matches_enumeration_for_each_shape(self, tiny_store):
        shapes = [
            pattern(1, 1, 2),
            pattern(1, 1, "o"),
            pattern("s", 2, 4),
            pattern(1, "p", 3),
            pattern(4, "p", "o"),
            pattern("s", 3, "o"),
            pattern("s", "p", 3),
            pattern("s", "p", "o"),
        ]
        for tp in shapes:
            assert tiny_store.count_pattern(tp) == len(
                list(tiny_store.match_pattern(tp))
            )


class TestStoreProperties:
    @given(triples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_every_access_path_is_consistent(self, triples):
        """All index permutations agree with a brute-force scan."""
        store = TripleStore()
        store.add_all(triples)
        unique = set(triples)
        assert len(store) == len(unique)
        for s, p, o in unique:
            assert o in store.backend.objects_of(s, p)
            assert s in store.backend.subjects_of(p, o)
            assert p in store.backend.predicates_between(s, o)
            assert (p, o) in out_edges(store, s)
            assert (s, p) in in_edges(store, o)

    @given(triples_strategy, st.integers(1, 12), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_count_pattern_equals_scan(self, triples, s, p):
        store = TripleStore()
        store.add_all(triples)
        tp = TriplePattern(s, p, Variable("o"))
        brute = sum(
            1 for (ts, tpred, _) in set(triples) if ts == s and tpred == p
        )
        assert store.count_pattern(tp) == brute

    @given(triples_strategy)
    @settings(max_examples=30, deadline=None)
    def test_degree_sums_equal_triple_count(self, triples):
        store = TripleStore()
        store.add_all(triples)
        out_total = sum(store.out_degree(n) for n in store.nodes())
        in_total = sum(store.backend.in_degree(n) for n in store.nodes())
        assert out_total == len(store)
        assert in_total == len(store)


class TestFromLexical:
    def test_dictionary_attached(self, books_store):
        assert books_store.dictionary is not None
        assert books_store.dictionary.num_predicates == 3

    def test_counts(self, books_store):
        assert len(books_store) == 5
        king = books_store.dictionary.nodes.lookup("StephenKing")
        author = books_store.dictionary.predicates.lookup("hasAuthor")
        assert set(
            books_store.backend.subjects_of(author, king).tolist()
        ) == {
            books_store.dictionary.nodes.lookup("TheShining"),
            books_store.dictionary.nodes.lookup("IT"),
        }

    def test_memory_accounting_positive(self, books_store):
        assert books_store.memory_bytes() > 0


class TestGenerationCounter:
    """Regression tests: no cached view may survive a mutation.

    The store stamps every lazily built structure (columnar snapshot,
    adjacency lists, legacy dict indexes, node cache) with the
    generation at build time; ``add`` bumps the generation, so a cache
    built before the mutation can never be served after it.
    """

    def test_generation_counts_new_triples_only(self):
        store = TripleStore()
        assert store.generation == 0
        store.add(1, 1, 2)
        store.add(1, 1, 2)  # duplicate: no state change, no bump
        store.add(2, 1, 3)
        assert store.generation == 2

    def test_adjacency_not_stale_after_cached_build(self, tiny_store):
        # Build and hold the caches, then mutate.
        assert out_edges(tiny_store, 1) == [(1, 2), (1, 3), (2, 4)]
        assert (3, 2) in in_edges(tiny_store, 4)
        tiny_store.add(1, 3, 9)
        assert (3, 9) in out_edges(tiny_store, 1)
        tiny_store.add(9, 1, 4)
        assert (9, 1) in in_edges(tiny_store, 4)

    def test_nodes_cache_refreshes(self, tiny_store):
        assert 42 not in tiny_store.nodes()
        tiny_store.add(42, 1, 1)
        assert 42 in tiny_store.nodes()

    def test_backend_view_refreshes(self, tiny_store):
        assert 2 not in tiny_store.backend.out_predicates(4).tolist()
        tiny_store.add(4, 2, 7)
        assert 7 in tiny_store.backend.objects_of(4, 2).tolist()
        assert 4 in tiny_store.backend.pred_slice(2)[0].tolist()

    def test_count_pattern_after_mutation(self, tiny_store):
        before = tiny_store.count_pattern(pattern("s", 1, "o"))
        tiny_store.add(7, 1, 8)
        assert tiny_store.count_pattern(pattern("s", 1, "o")) == before + 1
