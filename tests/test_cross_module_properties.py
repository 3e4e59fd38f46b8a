"""Cross-module invariants checked with hypothesis.

Each property ties two independently implemented subsystems together
(cost model ↔ executor, synopsis ↔ exact matcher, ...), so a bug in
either side breaks the equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.bayesnet import BayesNetEstimator, ChainHistogram
from ext.compound import CompoundEstimator
from ext.monitor import total_variation
from ext.optimizer import (
    cout_cost,
    dp_best_order,
    execute_order,
    true_cost_fn,
)
from ext.ranges import (
    RangeConstraint,
    RangeQuery,
    count_range_query,
)
from repro.rdf import TripleStore, count_bgp
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


def random_store(seed, triples=50, nodes=10, preds=3):
    rng = np.random.default_rng(seed)
    store = TripleStore()
    for _ in range(triples):
        store.add(
            int(rng.integers(1, nodes)),
            int(rng.integers(1, preds + 1)),
            int(rng.integers(1, nodes)),
        )
    return store


class TestOptimizerExecutorAgreement:
    """The cost model *predicts* what the executor *measures*."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_oracle_cost_equals_executed_cout_chain(self, seed):
        store = random_store(seed)
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        oracle = true_cost_fn(store)
        plan = dp_best_order(q, oracle)
        execution = execute_order(store, q, plan.order)
        assert execution.cout == pytest.approx(plan.cost)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_oracle_cost_equals_executed_cout_star(self, seed):
        store = random_store(seed)
        q = star_pattern(v("x"), [(1, v("a")), (2, v("b")), (3, v("c"))])
        oracle = true_cost_fn(store)
        plan = dp_best_order(q, oracle)
        execution = execute_order(store, q, plan.order)
        assert execution.cout == pytest.approx(plan.cost)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.permutations([0, 1, 2]),
    )
    def test_any_order_cout_matches_execution(self, seed, order):
        store = random_store(seed)
        q = star_pattern(v("x"), [(1, v("a")), (2, v("b")), (3, v("c"))])
        oracle = true_cost_fn(store)
        execution = execute_order(store, q, tuple(order))
        assert execution.cout == pytest.approx(
            cout_cost(q, tuple(order), oracle)
        )


class TestRangeMonotonicity:
    """Widening a range can only add solutions."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=5),
    )
    def test_wider_range_never_smaller(self, seed, low, slack):
        store = random_store(seed)
        base = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        narrow = RangeQuery(
            base, (RangeConstraint(0, low, low + slack),)
        )
        wide = RangeQuery(
            base, (RangeConstraint(0, max(low - 2, 0), low + slack + 2),)
        )
        assert count_range_query(store, narrow) <= count_range_query(
            store, wide
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_full_range_equals_unconstrained(self, seed):
        store = random_store(seed)
        base = star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        query = RangeQuery(
            base,
            (RangeConstraint(0, 0, 10**9), RangeConstraint(1, 0, 10**9)),
        )
        assert count_range_query(store, query) == count_bgp(store, base)


class TestSynopsisExactness:
    """Where the synopses claim exactness, they must be exact."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_chain_histogram_exact_on_two_chains(self, seed):
        store = random_store(seed)
        hist = ChainHistogram(store)
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        assert hist.estimate_chain([1, 2]) == count_bgp(store, q)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bayesnet_exact_on_single_patterns(self, seed):
        store = random_store(seed)
        est = BayesNetEstimator(store)
        for pattern in (
            TriplePattern(v("s"), 1, v("o")),
            TriplePattern(1, 2, v("o")),
            TriplePattern(v("s"), 2, 3),
        ):
            q = QueryPattern([pattern])
            assert est.estimate(q) == count_bgp(store, q)


class TestCompoundBounds:
    """The geometric compound lies between its constituents."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_geometric_between_constituents(self, a, b):
        class Fixed:
            def __init__(self, value):
                self.value = value

            def estimate(self, query):
                return self.value

        compound = CompoundEstimator(
            Fixed(a), Fixed(b), policy="geometric"
        )
        q = star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        estimate = compound.estimate(q)
        lo, hi = min(a, b), max(a, b)
        assert lo * (1 - 1e-9) <= estimate <= hi * (1 + 1e-9)


class TestTotalVariationMetric:
    """TV distance is a metric on shape distributions."""

    dists = st.dictionaries(
        st.tuples(
            st.sampled_from(["star", "chain"]),
            st.integers(min_value=2, max_value=8),
        ),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=5,
    ).map(
        lambda d: {
            k: value / sum(d.values()) for k, value in d.items()
        }
    )

    @settings(max_examples=50, deadline=None)
    @given(dists, dists)
    def test_bounded_and_symmetric(self, a, b):
        d = total_variation(a, b)
        assert 0.0 <= d <= 1.0 + 1e-9
        assert d == pytest.approx(total_variation(b, a))

    @settings(max_examples=50, deadline=None)
    @given(dists, dists, dists)
    def test_triangle_inequality(self, a, b, c):
        assert total_variation(a, c) <= (
            total_variation(a, b) + total_variation(b, c) + 1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(dists)
    def test_identity(self, a):
        assert total_variation(a, dict(a)) == pytest.approx(0.0)
