"""Tests for the NeuroCard-style universal LMKG-U model."""

import numpy as np
import pytest

from ext.lmkg_u_universal import UniversalLMKGU
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable
from repro.sampling import generate_workload


def v(name):
    return Variable(name)


def small_config(**overrides):
    defaults = dict(
        epochs=1,
        hidden_sizes=(24, 24),
        embed_dim=8,
        training_samples=1_500,
        particles=32,
        seed=3,
    )
    defaults.update(overrides)
    return LMKGUConfig(**defaults)


@pytest.fixture(scope="module")
def universal(lubm_store):
    model = UniversalLMKGU(
        lubm_store,
        [("star", 2), ("chain", 2), ("star", 3)],
        small_config(),
    )
    model.fit()
    return model


class TestConstruction:
    def test_rejects_empty_shapes(self, lubm_store):
        with pytest.raises(ValueError, match="at least one shape"):
            UniversalLMKGU(lubm_store, [])

    def test_rejects_bad_topology(self, lubm_store):
        with pytest.raises(ValueError, match="unsupported topology"):
            UniversalLMKGU(lubm_store, [("cycle", 2)])

    def test_rejects_bad_size(self, lubm_store):
        with pytest.raises(ValueError):
            UniversalLMKGU(lubm_store, [("star", 0)])

    def test_deduplicates_shapes(self, lubm_store):
        model = UniversalLMKGU(
            lubm_store, [("star", 2), ("star", 2)], small_config()
        )
        assert model.shapes == [("star", 2)]

    def test_positions_cover_largest_shape(self, lubm_store):
        model = UniversalLMKGU(
            lubm_store, [("star", 2), ("chain", 5)], small_config()
        )
        assert model.num_positions == 1 + (2 * 5 + 1)


class TestTraining:
    def test_universes_recorded(self, universal):
        assert set(universal.universes) == {
            ("star", 2),
            ("chain", 2),
            ("star", 3),
        }
        assert universal.total_universe == sum(
            universal.universes.values()
        )

    def test_budgets_proportional_to_universes(self, lubm_store):
        model = UniversalLMKGU(
            lubm_store,
            [("star", 2), ("chain", 2)],
            small_config(training_samples=3_000),
        )
        budgets = model._sample_budgets()
        universes = {
            shape: budgets[shape] for shape in model.shapes
        }
        # The bigger universe gets the bigger slice.
        star_u, chain_u = (
            budgets[("star", 2)],
            budgets[("chain", 2)],
        )
        assert star_u > chain_u  # LUBM stars outnumber chains

    def test_history_non_empty(self, universal):
        assert universal.history
        assert all(np.isfinite(loss) for loss in universal.history)


class TestEstimation:
    def test_estimates_covered_shapes(self, universal, lubm_store):
        for topology, size in (("star", 2), ("chain", 2), ("star", 3)):
            workload = generate_workload(
                lubm_store, topology, size, num_queries=5, seed=8
            )
            for record in workload.records:
                estimate = universal.estimate(record.query)
                assert np.isfinite(estimate)
                assert estimate >= 0.0

    def test_rejects_uncovered_shape(self, universal, lubm_store):
        preds = lubm_store.predicates()
        big = chain_pattern(
            [v("a"), preds[0], v("b"), preds[1], v("c"),
             preds[0], v("d")]
        )
        with pytest.raises(ValueError, match="does not cover"):
            universal.estimate(big)

    def test_rejects_composite(self, universal, lubm_store):
        preds = lubm_store.predicates()
        composite = QueryPattern(
            [
                TriplePattern(v("a"), preds[0], v("b")),
                TriplePattern(v("c"), preds[1], v("b")),
                TriplePattern(v("c"), preds[0], v("d")),
            ]
        )
        with pytest.raises(ValueError, match="star and chain"):
            universal.estimate(composite)

    def test_estimate_before_fit_raises(self, lubm_store):
        model = UniversalLMKGU(
            lubm_store, [("star", 2)], small_config()
        )
        with pytest.raises(RuntimeError, match="before fit"):
            model.estimate(
                star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
            )

    def test_repeated_variable_rejected(self, universal, lubm_store):
        preds = lubm_store.predicates()[:2]
        q = star_pattern(v("x"), [(preds[0], v("o")), (preds[1], v("o"))])
        with pytest.raises(ValueError, match="repeats a variable"):
            universal.estimate(q)


class TestSingleModelTrade:
    """§VII-B: one model for everything costs less memory."""

    def test_memory_below_per_shape_models(self, lubm_store, universal):
        per_shape_total = 0
        for topology, size in universal.shapes:
            model = LMKGU(lubm_store, topology, size, small_config())
            model.build_model()
            per_shape_total += model.memory_bytes()
        assert universal.memory_bytes() < per_shape_total

    def test_reasonable_accuracy_on_medians(self, universal, lubm_store):
        from repro.core.metrics import q_errors

        workload = generate_workload(
            lubm_store, "star", 2, num_queries=25, seed=9
        )
        estimates = [
            universal.estimate(r.query) for r in workload.records
        ]
        errors = q_errors(
            estimates, [r.cardinality for r in workload.records]
        )
        # Loose sanity bound at this tiny budget: the single model must
        # be in the right order of magnitude on the median query.
        assert float(np.median(errors)) < 100.0


class TestCheckpointing:
    def test_save_load_round_trip(self, universal, lubm_store, tmp_path):
        path = tmp_path / "universal.npz"
        universal.save(path)
        restored = UniversalLMKGU.load(path, lubm_store)
        assert restored.shapes == universal.shapes
        assert restored.universes == universal.universes
        workload = generate_workload(
            lubm_store, "star", 2, num_queries=5, seed=10
        )
        for record in workload.records:
            assert restored.estimate(record.query) == pytest.approx(
                universal.estimate(record.query), rel=1e-5
            )

    def test_save_before_fit_raises(self, lubm_store, tmp_path):
        model = UniversalLMKGU(
            lubm_store, [("star", 2)], small_config()
        )
        with pytest.raises(RuntimeError, match="before fit"):
            model.save(tmp_path / "x.npz")
