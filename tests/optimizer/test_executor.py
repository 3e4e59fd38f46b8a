"""Tests for the pipelined plan executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.optimizer import execute_order, prefix_patterns
from repro.rdf import count_bgp
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


class TestExecuteOrder:
    def test_result_size_matches_exact_count(self, tiny_store):
        q = star_pattern(v("x"), [(1, v("y")), (2, 4)])
        execution = execute_order(tiny_store, q, (0, 1))
        assert execution.result_size == count_bgp(tiny_store, q)

    def test_intermediates_equal_prefix_cardinalities(self, tiny_store):
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        for order in ((0, 1), (1, 0)):
            execution = execute_order(tiny_store, q, order)
            prefixes = prefix_patterns(q, order)[:-1]
            expected = tuple(
                count_bgp(tiny_store, p) for p in prefixes
            )
            assert execution.intermediate_sizes == expected
            assert execution.cout == sum(expected)

    def test_empty_prefix_short_circuits(self, tiny_store):
        # First pattern matches nothing: zero work afterwards.
        q = QueryPattern(
            [
                TriplePattern(99, 1, v("y")),
                TriplePattern(v("y"), 2, v("z")),
            ]
        )
        execution = execute_order(tiny_store, q, (0, 1))
        assert execution.intermediate_sizes == (0,)
        assert execution.result_size == 0
        assert execution.probes == 1

    def test_probe_count_reflects_pipeline_fanout(self, tiny_store):
        # Level 1: 1 probe producing k bindings; level 2: k probes.
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        execution = execute_order(tiny_store, q, (0, 1))
        assert execution.probes == 1 + execution.intermediate_sizes[0]

    def test_rejects_non_permutation(self, tiny_store):
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        with pytest.raises(ValueError, match="not a permutation"):
            execute_order(tiny_store, q, (0, 0))
        with pytest.raises(ValueError, match="not a permutation"):
            execute_order(tiny_store, q, (0,))

    def test_order_independence_of_result(self, lubm_store):
        preds = lubm_store.predicates()[:3]
        q = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        sizes = {
            execute_order(lubm_store, q, order).result_size
            for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2))
        }
        assert len(sizes) == 1

    def test_repeated_variable_filtering(self, tiny_store):
        # ?x p1 ?x never matches in the tiny graph (no self loops).
        q = QueryPattern(
            [
                TriplePattern(v("x"), 1, v("y")),
                TriplePattern(v("y"), 1, v("y")),
            ]
        )
        execution = execute_order(tiny_store, q, (0, 1))
        assert execution.result_size == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_executor_agrees_with_matcher_property(seed):
    """On random graphs, executed result sizes equal exact counts."""
    import numpy as np

    from repro.rdf import TripleStore

    rng = np.random.default_rng(seed)
    store = TripleStore()
    for _ in range(60):
        store.add(
            int(rng.integers(1, 10)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 10)),
        )
    q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
    for order in ((0, 1), (1, 0)):
        execution = execute_order(store, q, order)
        assert execution.result_size == count_bgp(store, q)
