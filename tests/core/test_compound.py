"""Tests for the compound supervised+unsupervised estimator."""

import math

import pytest

from ext.compound import CompoundEstimator, ShapeWeights, _safe_log
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable
from repro.sampling.workload import QueryRecord


def v(name):
    return Variable(name)


class Constant:
    """Stub model answering a fixed value."""

    def __init__(self, value, memory=100):
        self.value = value
        self._memory = memory
        self.calls = 0

    def estimate(self, query):
        self.calls += 1
        return self.value

    def memory_bytes(self):
        return self._memory


def star_query():
    return star_pattern(v("x"), [(1, v("a")), (2, v("b"))])


def chain_query():
    return chain_pattern([v("x"), 1, v("y"), 2, v("z")])


def record(query, topology, size, cardinality):
    return QueryRecord(
        query=query, topology=topology, size=size, cardinality=cardinality
    )


class TestSafeLog:
    def test_floors_at_one(self):
        assert _safe_log(0.0) == 0.0
        assert _safe_log(0.5) == 0.0

    def test_log_above_one(self):
        assert _safe_log(math.e) == pytest.approx(1.0)


class TestGeometricPolicy:
    def test_geometric_mean_of_estimates(self):
        compound = CompoundEstimator(
            Constant(100.0), Constant(1.0), policy="geometric"
        )
        assert compound.estimate(star_query()) == pytest.approx(10.0)

    def test_identical_models_are_fixed_point(self):
        compound = CompoundEstimator(
            Constant(42.0), Constant(42.0), policy="geometric"
        )
        assert compound.estimate(star_query()) == pytest.approx(42.0)

    def test_geometric_minimises_worst_qerror(self):
        # Models off by 1/c and c: geometric mean is exact.
        truth = 50.0
        compound = CompoundEstimator(
            Constant(truth * 4), Constant(truth / 4), policy="geometric"
        )
        assert compound.estimate(star_query()) == pytest.approx(truth)


class TestRouterPolicy:
    def test_star_routes_to_unsupervised(self):
        sup, uns = Constant(1.0), Constant(2.0)
        compound = CompoundEstimator(sup, uns, policy="router")
        assert compound.estimate(star_query()) == 2.0
        assert sup.calls == 0

    def test_chain_routes_to_supervised(self):
        sup, uns = Constant(1.0), Constant(2.0)
        compound = CompoundEstimator(sup, uns, policy="router")
        assert compound.estimate(chain_query()) == 1.0
        assert uns.calls == 0


class TestValidatedPolicy:
    def test_requires_validation_workload(self):
        with pytest.raises(ValueError, match="validation"):
            CompoundEstimator(
                Constant(1.0), Constant(1.0), policy="validated"
            )

    def test_better_model_gets_heavier_weight(self):
        # Supervised is exact on the validation set, unsupervised off 10x.
        validation = [record(star_query(), "star", 2, 100)]
        compound = CompoundEstimator(
            Constant(100.0),
            Constant(1000.0),
            policy="validated",
            validation=validation,
        )
        weights = compound.weight_for(("star", 2))
        assert weights.supervised > 0.9
        estimate = compound.estimate(star_query())
        # Blended estimate leans towards the supervised answer.
        assert estimate < 200.0

    def test_tied_models_split_evenly(self):
        validation = [record(star_query(), "star", 2, 100)]
        compound = CompoundEstimator(
            Constant(200.0),
            Constant(50.0),
            policy="validated",
            validation=validation,
        )
        weights = compound.weight_for(("star", 2))
        assert weights.supervised == pytest.approx(0.5)

    def test_unseen_shape_defaults_to_even_split(self):
        validation = [record(star_query(), "star", 2, 100)]
        compound = CompoundEstimator(
            Constant(100.0),
            Constant(400.0),
            policy="validated",
            validation=validation,
        )
        weights = compound.weight_for(("chain", 5))
        assert weights.supervised == 0.5
        assert weights.unsupervised == 0.5

    def test_perfect_models_split_evenly(self):
        validation = [record(star_query(), "star", 2, 100)]
        compound = CompoundEstimator(
            Constant(100.0),
            Constant(100.0),
            policy="validated",
            validation=validation,
        )
        assert compound.weight_for(("star", 2)).supervised == 0.5


class TestFacade:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            CompoundEstimator(
                Constant(1.0), Constant(1.0), policy="democracy"
            )

    def test_memory_sums_models(self):
        compound = CompoundEstimator(
            Constant(1.0, memory=100),
            Constant(1.0, memory=50),
            policy="geometric",
        )
        assert compound.memory_bytes() == 150

    def test_shape_weights_complement(self):
        weights = ShapeWeights(supervised=0.7)
        assert weights.unsupervised == pytest.approx(0.3)


class TestOnRealModels:
    """Integration: compound over actually trained LMKG models."""

    @pytest.fixture(scope="class")
    def trained(self, lubm_store):
        from repro.core.framework import LMKG
        from repro.core.lmkg_s import LMKGSConfig
        from repro.core.lmkg_u import LMKGUConfig
        from repro.sampling import generate_workload

        shapes = [("star", 2)]
        sup = LMKG(
            lubm_store,
            model_type="supervised",
            lmkgs_config=LMKGSConfig(epochs=20, hidden_sizes=(64, 64)),
        )
        sup.fit(shapes=shapes, queries_per_shape=200)
        uns = LMKG(
            lubm_store,
            model_type="unsupervised",
            lmkgu_config=LMKGUConfig(
                epochs=1,
                hidden_sizes=(32, 32),
                training_samples=1_000,
                particles=32,
            ),
        )
        uns.fit(shapes=shapes)
        validation = generate_workload(
            lubm_store, "star", 2, num_queries=20, seed=77
        ).records
        return sup, uns, validation

    def test_all_policies_produce_positive_estimates(self, trained):
        sup, uns, validation = trained
        query = validation[0].query
        for policy in ("geometric", "router"):
            compound = CompoundEstimator(sup, uns, policy=policy)
            assert compound.estimate(query) >= 0.0
        compound = CompoundEstimator(
            sup, uns, policy="validated", validation=validation
        )
        assert compound.estimate(query) >= 0.0

    def test_validated_weights_exist_for_seen_shape(self, trained):
        sup, uns, validation = trained
        compound = CompoundEstimator(
            sup, uns, policy="validated", validation=validation
        )
        weights = compound.weight_for(("star", 2))
        assert 0.0 <= weights.supervised <= 1.0
