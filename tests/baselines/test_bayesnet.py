"""Tests for the Huang & Liu Bayesian-network + chain-histogram baseline."""

import math

import pytest

from ext.bayesnet import (
    BayesNetEstimator,
    ChainHistogram,
    StarBayesNet,
    _mutual_information,
)
from repro.rdf import TripleStore, count_bgp
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


@pytest.fixture
def correlated_store():
    """Graph where predicates 1 and 2 always co-occur, 3 never with 1.

    Subjects 1..4 emit {p1, p2}; subjects 5..8 emit {p3}.  Independence
    would estimate P(p1 and p2) = 0.25 while the truth is 0.5 — exactly
    the correlation failure the paper's introduction describes.
    """
    store = TripleStore()
    for s in (1, 2, 3, 4):
        store.add(s, 1, 100 + s)
        store.add(s, 2, 200 + s)
    for s in (5, 6, 7, 8):
        store.add(s, 3, 300 + s)
    return store


class TestMutualInformation:
    def test_independent_indicators_have_zero_mi(self):
        # 100 subjects, each predicate in half, jointly in a quarter.
        assert _mutual_information(25, 50, 50, 100) == pytest.approx(0.0)

    def test_perfectly_correlated_indicators_have_positive_mi(self):
        assert _mutual_information(50, 50, 50, 100) > 0.5

    def test_empty_population_is_zero(self):
        assert _mutual_information(0, 0, 0, 0) == 0.0


class TestStarBayesNet:
    def test_marginals(self, correlated_store):
        bn = StarBayesNet(correlated_store)
        assert bn.marginal(1) == pytest.approx(0.5)
        assert bn.marginal(3) == pytest.approx(0.5)
        assert bn.marginal(99) == 0.0

    def test_correlation_captured(self, correlated_store):
        bn = StarBayesNet(correlated_store)
        joint = bn.prob_all_present([1, 2])
        # Truth is 0.5; independence would say 0.25. The smoothed tree
        # conditional gives ~0.5 * (4 + 0.5) / (4 + 1) = 0.45.
        assert joint > 0.35
        disjoint = bn.prob_all_present([1, 3])
        assert disjoint < joint

    def test_single_predicate_is_marginal(self, correlated_store):
        bn = StarBayesNet(correlated_store)
        assert bn.prob_all_present([3]) == pytest.approx(bn.marginal(3))

    def test_tree_has_one_root(self, correlated_store):
        bn = StarBayesNet(correlated_store)
        roots = [p for p, parent in bn._parent.items() if parent is None]
        assert len(roots) == 1
        assert set(bn._parent) == set(bn.predicates)

    def test_max_predicates_caps_tree(self, correlated_store):
        bn = StarBayesNet(correlated_store, max_predicates=2)
        assert len(bn.predicates) == 2
        # Tail predicates still answer through marginals.
        assert bn.prob_all_present([1, 2, 3]) >= 0.0

    def test_memory_scales_with_predicates(self, correlated_store):
        bn = StarBayesNet(correlated_store)
        assert bn.memory_bytes() == len(bn.predicates) * 24


class TestChainHistogram:
    def test_join_counts_exact(self, tiny_store):
        hist = ChainHistogram(tiny_store)
        # Two-step paths via p1 then p2: 1-p1->2-p2->4, 1-p1->3-p2->4,
        # 2-p1->3-p2->4.
        assert hist.join_count(1, 2) == 3
        # p2 then p3: *-p2->4-p3->{5,6}: 3 sources * 2 = 6.
        assert hist.join_count(2, 3) == 6
        assert hist.join_count(3, 1) == 0

    def test_two_pattern_chain_is_exact(self, tiny_store):
        hist = ChainHistogram(tiny_store)
        q = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        assert hist.estimate_chain([1, 2]) == count_bgp(tiny_store, q)

    def test_single_predicate_chain(self, tiny_store):
        hist = ChainHistogram(tiny_store)
        assert hist.estimate_chain([1]) == 3.0

    def test_unknown_predicate_gives_zero(self, tiny_store):
        hist = ChainHistogram(tiny_store)
        assert hist.estimate_chain([1, 99]) == 0.0
        assert hist.estimate_chain([99]) == 0.0

    def test_three_step_markov_estimate(self, tiny_store):
        hist = ChainHistogram(tiny_store)
        # True 3-chain p1->p2->p3: paths X-p1->Y-p2->4-p3->{5,6} = 3*2 = 6.
        q = chain_pattern([v("a"), 1, v("b"), 2, v("c"), 3, v("d")])
        truth = count_bgp(tiny_store, q)
        estimate = hist.estimate_chain([1, 2, 3])
        # Markov estimate: J(1,2) * J(2,3)/|p2| = 3 * 6/3 = 6 — exact here.
        assert estimate == pytest.approx(truth)

    def test_empty_chain(self, tiny_store):
        assert ChainHistogram(tiny_store).estimate_chain([]) == 0.0


class TestBayesNetEstimator:
    def test_single_pattern_is_exact(self, tiny_store):
        est = BayesNetEstimator(tiny_store)
        q = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        assert est.estimate(q) == count_bgp(tiny_store, q)

    def test_star_beats_independence_under_correlation(
        self, correlated_store
    ):
        from repro.baselines import IndependenceEstimator

        q = star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        truth = count_bgp(correlated_store, q)
        assert truth == 4
        bn_est = BayesNetEstimator(correlated_store).estimate(q)
        ind_est = IndependenceEstimator(correlated_store).estimate(q)
        bn_q = max(bn_est / truth, truth / max(bn_est, 1e-9))
        ind_q = max(ind_est / truth, truth / max(ind_est, 1e-9))
        assert bn_q < ind_q

    def test_bound_centre_star_is_exact(self, tiny_store):
        q = star_pattern(1, [(1, v("a")), (2, v("b"))])
        est = BayesNetEstimator(tiny_store)
        assert est.estimate(q) == count_bgp(tiny_store, q)

    def test_chain_with_bound_endpoint(self, tiny_store):
        est = BayesNetEstimator(tiny_store)
        q = chain_pattern([v("x"), 1, v("y"), 2, 4])
        # All p2 objects are 4, so binding o=4 keeps the full count.
        assert est.estimate(q) == pytest.approx(
            count_bgp(tiny_store, q)
        )

    def test_unbound_predicate_falls_back(self, tiny_store):
        est = BayesNetEstimator(tiny_store)
        q = QueryPattern([TriplePattern(v("s"), v("p"), v("o"))])
        assert est.estimate(q) > 0

    def test_reasonable_on_real_workload(self, lubm_store):
        from repro.sampling import generate_workload

        est = BayesNetEstimator(lubm_store)
        workload = generate_workload(
            lubm_store, "star", 2, num_queries=30, seed=3
        )
        q_errors = []
        for record in workload.records:
            estimate = max(est.estimate(record.query), 1e-9)
            truth = max(record.cardinality, 1e-9)
            q_errors.append(max(estimate / truth, truth / estimate))
        # Sanity bound: a synopsis-based estimator should be within a
        # few orders of magnitude on median.
        assert sorted(q_errors)[len(q_errors) // 2] < 1e3

    def test_memory_reported(self, tiny_store):
        est = BayesNetEstimator(tiny_store)
        assert est.memory_bytes() > 0
