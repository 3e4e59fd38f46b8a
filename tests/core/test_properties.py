"""Cross-cutting property-based tests on core invariants.

These run hypothesis over randomly built graphs and queries, checking
invariants the unit tests only spot-check:

- encoders are injective over bound queries of one shape,
- the estimator protocol (estimate >= 0, finite) holds for every
  estimator on every valid query,
- decomposition preserves the triple multiset and never emits composites,
- topology, decomposition and combination, which compare terms by key,
  agree with a reference that compares them as ``Variable`` objects,
- q-error scoring is scale-symmetric.
"""

from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import DETERMINISM_SETTINGS, STANDARD_SETTINGS

from repro.core.decomposition import (
    classified_components,
    combine_estimates,
    shared_variables,
)
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
    @STANDARD_SETTINGS
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
    @STANDARD_SETTINGS
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
    @STANDARD_SETTINGS
    def test_triples_preserved_and_no_composites(self, query):
        parts = [c for c, _ in classified_components(query, query.topology())]
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
    @DETERMINISM_SETTINGS
    def test_classified_components_match_reclassification(self, triples):
        """The topology handed down with each component — so the router
        classifies a query once — is what ``topology()`` would say."""
        query = QueryPattern(triples)
        classified = classified_components(query, query.topology())
        assert [c for c, _ in classified] == [
            c
            for c, _ in reference_classified_components(
                query, reference_topology(query)
            )
        ]
        for component, topology in classified:
            assert topology is component.topology()


# ----------------------------------------------------------------------
# Reference: shape checks, decomposition and combination comparing terms
# as objects (``Variable.__eq__`` / ``__hash__``), not by key
# ----------------------------------------------------------------------


def reference_topology(query):
    triples = query.triples
    if len(triples) == 1:
        return Topology.SINGLE
    if all(tp.s == triples[0].s for tp in triples):
        return Topology.STAR
    if all(prev.o == nxt.s for prev, nxt in zip(triples, triples[1:])):
        return Topology.CHAIN
    return Topology.COMPOSITE


def reference_classified_components(query, topology):
    if topology is not Topology.COMPOSITE:
        return [(query, topology)]
    by_subject = defaultdict(list)
    for tp in query.triples:
        by_subject[tp.s].append(tp)
    components = []
    leftovers = []
    for triples in by_subject.values():
        if len(triples) >= 2:
            components.append((QueryPattern(triples), Topology.STAR))
        else:
            leftovers.extend(triples)
    remaining = list(leftovers)
    while remaining:
        chain = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for i, tp in enumerate(remaining):
                if tp.s == chain[-1].o:
                    chain.append(remaining.pop(i))
                    grew = True
                    break
                if tp.o == chain[0].s:
                    chain.insert(0, remaining.pop(i))
                    grew = True
                    break
        components.append(
            (
                QueryPattern(chain),
                Topology.CHAIN if len(chain) > 1 else Topology.SINGLE,
            )
        )
    return components


def reference_shared_variables(components):
    counts = defaultdict(int)
    for component in components:
        for var in component.variables:
            counts[var] += 1
    return {var: c for var, c in counts.items() if c > 1}


def reference_combine_estimates(store, components, estimates):
    product = 1.0
    for estimate in estimates:
        product *= max(float(estimate), 0.0)
    domain = max(store.num_nodes, 1)
    for _, count in reference_shared_variables(components).items():
        product /= float(domain) ** (count - 1)
    return product


#: variable names the draws share: every drawn variable is a fresh
#: ``Variable`` object, so equal names meet as distinct objects
NAMES = ("a", "b", "c", "d")


def fresh_variables():
    return st.sampled_from(NAMES).map(Variable)


@st.composite
def keyed_triples(draw):
    """One triple pattern over few terms: repeated ids, variables that
    share a name as distinct objects, and self-loops (``s == o``, as the
    same object or as an equal one)."""
    node = st.one_of(st.integers(1, 3), fresh_variables())
    s = draw(node)
    loop = draw(st.sampled_from(("none", "same", "equal")))
    if loop == "same":
        o = s
    elif loop == "equal" and isinstance(s, Variable):
        o = Variable(s.name)
    else:
        o = draw(node)
    p = draw(st.one_of(st.integers(1, 2), fresh_variables()))
    return TriplePattern(s, p, o)


@st.composite
def multi_join_queries(draw):
    """Three or more star components and a chain that share at least
    two variables: every star has an arm to ``?j0`` (maybe two), the
    first two an arm to ``?j1``, and a chain leaves ``?j1``; the
    triples come in a drawn order."""
    triples = []
    stars = draw(st.integers(3, 4))
    for i in range(stars):
        centre = Variable(f"c{i}")
        arms = ["j0"] * draw(st.integers(1, 2))
        arms += ["j1"] if i < 2 else [f"o{i}"]
        arms += [f"x{i}{k}" for k in range(draw(st.integers(0, 1)))]
        for name in arms:
            triples.append(
                TriplePattern(
                    centre, draw(st.integers(1, 3)), Variable(name)
                )
            )
    hops = draw(st.integers(1, 2))
    previous = "j1"
    for k in range(hops):
        triples.append(
            TriplePattern(
                Variable(previous), draw(st.integers(1, 3)),
                Variable(f"t{k}"),
            )
        )
        previous = f"t{k}"
    return QueryPattern(draw(st.permutations(triples)))


def keyed_queries():
    return st.one_of(
        st.lists(keyed_triples(), min_size=1, max_size=7).map(QueryPattern),
        multi_join_queries(),
    )


def assert_same_components(actual, expected):
    """Equal components in equal order, built of the same triple
    objects, with equal topologies."""
    assert len(actual) == len(expected)
    for (component, topology), (want, want_topology) in zip(
        actual, expected
    ):
        assert topology is want_topology
        assert component == want
        assert all(
            a is b for a, b in zip(component.triples, want.triples)
        )


class TestKeyedTermsMatchReference:
    """Shape checks, decomposition and combination compare terms by key
    (a term id, a variable's name); each must agree with the reference
    that compares ``Variable`` objects, down to the order of
    components and the bits of a combined estimate."""

    @given(keyed_queries())
    @DETERMINISM_SETTINGS
    def test_topology(self, query):
        topology = query.topology()
        assert topology is reference_topology(query)
        if len(query) > 1:
            assert query.is_star() == all(
                tp.s == query.triples[0].s for tp in query.triples
            )
            assert query.is_chain() == all(
                prev.o == nxt.s
                for prev, nxt in zip(query.triples, query.triples[1:])
            )

    @given(keyed_queries())
    @DETERMINISM_SETTINGS
    def test_classified_components(self, query):
        assert_same_components(
            classified_components(query, query.topology()),
            reference_classified_components(
                query, reference_topology(query)
            ),
        )

    @given(
        keyed_queries(),
        st.integers(1, 10**6),
        st.lists(
            st.floats(0.0, 1e12, allow_nan=False), min_size=8, max_size=8
        ),
    )
    @DETERMINISM_SETTINGS
    def test_shared_variables_and_combination(
        self, query, num_nodes, estimates
    ):
        components = [
            c for c, _ in classified_components(query, query.topology())
        ]
        shared = shared_variables(components)
        reference = reference_shared_variables(components)
        # equal keys and counts, in the same first-occurrence order
        assert list(shared.items()) == list(reference.items())
        store = SimpleNamespace(num_nodes=num_nodes)
        values = estimates[: len(components)]
        values += [1.0] * (len(components) - len(values))
        assert combine_estimates(
            store, components, values
        ) == reference_combine_estimates(store, components, values)

    @given(multi_join_queries())
    @STANDARD_SETTINGS
    def test_multi_join_queries_share_two_variables(self, query):
        """The strategy above draws what it promises: three or more
        components and two or more shared variables."""
        components = [
            c for c, _ in classified_components(query, query.topology())
        ]
        assert len(components) >= 3
        assert len(shared_variables(components)) >= 2


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
