"""Tests for graph statistics (Table I inputs)."""

import numpy as np

from repro.rdf.stats import (
    compute_stats,
    correlation_factor,
    gini,
)


class TestGini:
    def test_uniform_is_zero(self):
        assert abs(gini(np.array([5, 5, 5, 5]))) < 1e-9

    def test_concentrated_is_high(self):
        skewed = gini(np.array([100, 1, 1, 1]))
        assert skewed > 0.6

    def test_empty_and_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.array([0, 0])) == 0.0

    def test_monotone_in_skew(self):
        mild = gini(np.array([3, 2, 2, 1]))
        strong = gini(np.array([7, 1, 0, 0]))
        assert strong > mild


class TestComputeStats:
    def test_tiny_store(self, tiny_store):
        stats = compute_stats(tiny_store, "tiny")
        assert stats.num_triples == 8
        assert stats.num_entities == 6
        assert stats.num_predicates == 3
        assert stats.max_out_degree == 3
        assert stats.max_in_degree == 3


class TestPredicateStats:
    def test_correlation_factor_positive_correlation(self, tiny_store):
        # p1 and p2 co-occur on 2 of 4 subjects; independent expectation
        # is lower, so the factor exceeds 1.
        assert correlation_factor(tiny_store, 1, 2) > 1.0


class TestDatasetCharacter:
    """The synthetic datasets must show the paper's statistical traits."""

    def test_lubm_shape(self, lubm_store):
        stats = compute_stats(lubm_store, "lubm")
        assert stats.num_predicates <= 19
        assert stats.num_triples > 2_000
        # triples per entity around 3-4, like real LUBM.
        ratio = stats.num_triples / stats.num_entities
        assert 2.0 < ratio < 6.0

    def test_swdf_many_predicates(self, swdf_store):
        stats = compute_stats(swdf_store, "swdf")
        assert stats.num_predicates > 100

    def test_swdf_skewed_degrees(self, swdf_store):
        # SWDF's skew sits on the *in*-degree side: prolific authors are
        # the objects of many dc:creator triples.
        stats = compute_stats(swdf_store, "swdf")
        assert stats.degree_gini > 0.1
        mean_in = stats.num_triples / stats.num_entities
        assert stats.max_in_degree > 5 * mean_in
