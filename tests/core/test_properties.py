"""Cross-cutting property-based tests on core invariants.

These run hypothesis over randomly built graphs and queries, checking
invariants the unit tests only spot-check:

- encoders are injective over bound queries of one shape,
- the estimator protocol (estimate >= 0, finite) holds for every
  estimator on every valid query,
- decomposition preserves the triple multiset and never emits composites,
- q-error scoring is scale-symmetric.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import classified_components, decompose
from repro.core.encoders import make_encoders
from repro.core.metrics import q_error
from repro.core.pattern_bound import PatternBoundEncoder
from repro.core.sg_encoding import SGEncoding
from repro.rdf.pattern import (
    QueryPattern,
    Topology,
    chain_pattern,
    star_pattern,
)
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


# Strategy: a random star query over small domains, possibly unbound.
def star_queries(max_arms=3):
    term = st.one_of(st.integers(1, 30), st.none())

    @st.composite
    def build(draw):
        arms = draw(st.integers(2, max_arms))
        centre = draw(term)
        centre_term = v("c") if centre is None else centre
        pairs = []
        for i in range(arms):
            p = draw(st.integers(1, 7))
            o = draw(term)
            pairs.append((p, v(f"o{i}") if o is None else o))
        return star_pattern(centre_term, pairs)

    return build()


def chain_queries(max_hops=3):
    term = st.one_of(st.integers(1, 30), st.none())

    @st.composite
    def build(draw):
        hops = draw(st.integers(2, max_hops))
        terms = []
        for i in range(hops + 1):
            value = draw(term)
            terms.append(v(f"n{i}") if value is None else value)
            if i < hops:
                terms.append(draw(st.integers(1, 7)))
        return chain_pattern(terms)

    return build()


class TestEncoderInjectivity:
    @given(star_queries(), star_queries())
    @settings(max_examples=60, deadline=None)
    def test_sg_encoding_separates_distinct_stars(self, q1, q2):
        nodes, preds = make_encoders(30, 7, "binary")
        enc = SGEncoding.for_query_size(3, nodes, preds)
        if q1.canonical_key() == q2.canonical_key():
            return
        v1, v2 = enc.encode(q1), enc.encode(q2)
        # Distinct canonical queries of equal size must featurize apart
        # (pairs may legitimately collide across *sizes* after padding —
        # not generated here).
        if q1.size == q2.size:
            assert not np.array_equal(v1, v2)

    @given(chain_queries(), chain_queries())
    @settings(max_examples=60, deadline=None)
    def test_pattern_bound_separates_distinct_chains(self, q1, q2):
        nodes, preds = make_encoders(30, 7, "binary")
        enc = PatternBoundEncoder("chain", 3, nodes, preds)
        # Degenerate draws (all nodes equal) classify as stars; skip them.
        if not (q1.is_chain() and q2.is_chain()):
            return
        if q1.topology() is not Topology.CHAIN:
            return
        if q2.topology() is not Topology.CHAIN:
            return
        if q1.canonical_key() == q2.canonical_key():
            return
        if q1.size != q2.size:
            return
        assert not np.array_equal(enc.encode(q1), enc.encode(q2))


class TestDecompositionInvariants:
    @st.composite
    @staticmethod
    def composite_query(draw):
        triples = [
            TriplePattern(v("x"), draw(st.integers(1, 5)), v("y")),
            TriplePattern(v("x"), draw(st.integers(1, 5)), v("z")),
        ]
        extra = draw(st.integers(1, 3))
        prev = v("z")
        for i in range(extra):
            nxt = v(f"t{i}")
            triples.append(
                TriplePattern(prev, draw(st.integers(1, 5)), nxt)
            )
            prev = nxt
        return QueryPattern(triples)

    @given(composite_query())
    @settings(max_examples=60, deadline=None)
    def test_triples_preserved_and_no_composites(self, query):
        parts = decompose(query)
        flattened = [tp for part in parts for tp in part.triples]
        assert sorted(map(repr, flattened)) == sorted(
            map(repr, query.triples)
        )
        for part in parts:
            assert part.topology() is not Topology.COMPOSITE

    @given(
        st.lists(
            st.builds(
                TriplePattern,
                st.sampled_from([v("a"), v("b"), v("c"), 1, 2]),
                st.integers(1, 3),
                st.sampled_from([v("a"), v("b"), v("c"), v("d"), 1, 2]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_classified_components_match_reclassification(self, triples):
        """The topology handed down with each component — so the router
        classifies a query once — is what ``topology()`` would say."""
        query = QueryPattern(triples)
        classified = classified_components(query, query.topology())
        assert [c for c, _ in classified] == decompose(query)
        for component, topology in classified:
            assert topology is component.topology()


class TestQErrorProperties:
    @given(st.floats(1, 1e6), st.floats(1.0, 1e4))
    @settings(max_examples=60)
    def test_scale_symmetry(self, truth, factor):
        # Symmetry holds while both sides stay above the clamp at 1.
        if truth / factor < 1.0:
            return
        over = q_error(truth * factor, truth)
        under = q_error(truth / factor, truth)
        assert over == pytest.approx(under, rel=1e-6)

    @given(st.floats(1, 1e6), st.floats(1, 1e6), st.floats(1, 1e6))
    @settings(max_examples=60)
    def test_weak_transitivity_bound(self, a, b, c):
        """q(a,c) <= q(a,b) * q(b,c): the q-error is a metric-like ratio."""
        assert q_error(a, c) <= q_error(a, b) * q_error(b, c) * (1 + 1e-9)


class TestEstimatorProtocol:
    """Every estimator answers every valid query with a finite
    non-negative number on a real (small) dataset."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.baselines import (
            CharacteristicSets,
            Impr,
            IndependenceEstimator,
            JSUB,
            SumRDF,
            WanderJoin,
        )
        from repro.datasets import load_dataset
        from repro.sampling import generate_workload

        store = load_dataset("lubm", scale=0.5, seed=1)
        estimators = [
            CharacteristicSets(store),
            SumRDF(store, target_buckets=64),
            IndependenceEstimator(store),
            WanderJoin(store, walks_per_run=10, runs=2, seed=0),
            JSUB(store, walks_per_run=10, runs=2, seed=0),
            Impr(store, walks_per_run=10, runs=2, seed=0),
        ]
        queries = [
            r.query
            for topology in ("star", "chain")
            for r in generate_workload(
                store, topology, 2, 15, seed=80
            ).records
        ]
        return estimators, queries

    def test_all_finite_nonnegative(self, setup):
        estimators, queries = setup
        for estimator in estimators:
            for query in queries:
                value = estimator.estimate(query)
                assert np.isfinite(value), estimator.name
                assert value >= 0.0, estimator.name
