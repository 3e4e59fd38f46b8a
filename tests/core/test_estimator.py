"""The unified Estimator protocol: template hooks, validation, clamp."""

import numpy as np
import pytest

from repro.core.estimator import (
    Estimator,
    EstimatorContractError,
    finalize_estimates,
)


class LoopingStub(Estimator):
    """Per-query hook only; the base class supplies the batch loop."""

    name = "loop-stub"

    def __init__(self, value=5.0):
        self.value = value
        self.calls = 0

    def _estimate_one(self, query):
        self.calls += 1
        return self.value


class VectorStub(Estimator):
    """Batch hook only; returns whatever it was told to."""

    name = "vector-stub"

    def __init__(self, raw):
        self.raw = raw

    def _estimate_batch(self, queries):
        return self.raw


class TestDerivedSurfaces:
    def test_estimate_derives_from_batch(self):
        stub = LoopingStub(3.5)
        assert stub.estimate("q") == 3.5
        assert stub.calls == 1

    def test_default_batch_loops_per_query_hook(self):
        stub = LoopingStub(2.0)
        batch = stub.estimate_batch(["a", "b", "c"])
        assert batch.tolist() == [2.0, 2.0, 2.0]
        assert batch.dtype == np.float64
        assert stub.calls == 3

    def test_empty_batch_short_circuits(self):
        stub = LoopingStub()
        assert stub.estimate_batch([]).size == 0
        assert stub.calls == 0

    def test_neither_hook_implemented(self):
        with pytest.raises(NotImplementedError, match="neither"):
            Estimator().estimate_batch(["q"])

    def test_default_memory_bytes(self):
        assert LoopingStub().memory_bytes() == 0


class TestValidationAndClamp:
    """The one clamp site every estimator's output passes through."""

    def test_negatives_clamped_to_zero(self):
        stub = VectorStub(np.array([-3.0, 0.0, 7.5]))
        assert stub.estimate_batch([1, 2, 3]).tolist() == [0.0, 0.0, 7.5]

    def test_negative_per_query_estimate_clamped(self):
        assert LoopingStub(-12.0).estimate("q") == 0.0

    def test_nan_is_a_contract_error(self):
        stub = VectorStub(np.array([1.0, float("nan")]))
        with pytest.raises(EstimatorContractError, match="non-finite"):
            stub.estimate_batch([1, 2])

    def test_inf_is_a_contract_error(self):
        stub = VectorStub(np.array([float("inf")]))
        with pytest.raises(EstimatorContractError, match="non-finite"):
            stub.estimate_batch([1])

    def test_wrong_length_is_a_contract_error(self):
        stub = VectorStub(np.array([1.0, 2.0]))
        with pytest.raises(EstimatorContractError, match="shape"):
            stub.estimate_batch([1, 2, 3])

    def test_wrong_rank_is_a_contract_error(self):
        stub = VectorStub(np.ones((2, 2)))
        with pytest.raises(EstimatorContractError, match="shape"):
            stub.estimate_batch([1, 2])

    def test_list_results_coerced_to_float64(self):
        stub = VectorStub([1, 2, 3])
        batch = stub.estimate_batch(["a", "b", "c"])
        assert batch.dtype == np.float64
        assert batch.tolist() == [1.0, 2.0, 3.0]

    def test_finalize_names_the_offender(self):
        with pytest.raises(EstimatorContractError, match="wj"):
            finalize_estimates([float("nan")], 1, "wj")


class TestConformance:
    """Every shipped estimator family speaks the protocol."""

    def test_baselines_subclass_estimator(self):
        from ext.bayesnet import BayesNetEstimator
        from repro.baselines import (
            CharacteristicSets,
            Impr,
            IndependenceEstimator,
            JSUB,
            MSCN,
            SumRDF,
            WanderJoin,
        )

        for cls in (
            BayesNetEstimator,
            CharacteristicSets,
            Impr,
            IndependenceEstimator,
            JSUB,
            MSCN,
            SumRDF,
            WanderJoin,
        ):
            assert issubclass(cls, Estimator), cls

    def test_core_models_subclass_estimator(self):
        from ext.compound import CompoundEstimator
        from ext.lmkg_u_universal import UniversalLMKGU
        from ext.monitor import AdaptiveLMKG
        from ext.outliers import BufferedEstimator
        from repro.core import LMKG, LMKGS, LMKGU

        for cls in (
            LMKG,
            LMKGS,
            LMKGU,
            BufferedEstimator,
            CompoundEstimator,
            UniversalLMKGU,
            AdaptiveLMKG,
        ):
            assert issubclass(cls, Estimator), cls

    def test_no_estimator_overrides_estimate(self):
        """``estimate`` is derived, everywhere: a class that defined
        its own would be a second estimation routine."""
        import importlib
        import pkgutil

        import ext
        import repro.baselines
        import repro.core

        for package in (repro.core, repro.baselines, ext):
            for module in pkgutil.walk_packages(
                package.__path__, package.__name__ + "."
            ):
                importlib.import_module(module.name)

        def descendants(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from descendants(sub)

        shipped = [
            cls for cls in descendants(Estimator)
            if cls.__module__.startswith(("repro.", "ext."))
        ]
        assert len(shipped) >= 15
        for cls in shipped:
            assert "estimate" not in cls.__dict__, cls

    def test_estimate_is_a_one_element_batch(self, lubm_store):
        """``model.estimate(q) == model.estimate_batch([q])[0]`` exactly
        for the learned models, LMKG-U's sampler included, and the
        framework answers what the model it routes to answers."""
        from ext.lmkg_u_universal import UniversalLMKGU
        from repro.core import (
            LMKG,
            LMKGS,
            LMKGU,
            LMKGSConfig,
            LMKGUConfig,
        )
        from repro.sampling import generate_workload

        shapes = [("star", 2), ("chain", 2)]
        workloads = {
            topology: generate_workload(
                lubm_store, topology, size, 40, seed=51
            )
            for topology, size in shapes
        }
        config = LMKGUConfig(
            embed_dim=8,
            hidden_sizes=(32,),
            epochs=1,
            training_samples=1_000,
            particles=16,
            seed=5,
        )
        framework = LMKG(
            lubm_store, model_type="unsupervised", lmkgu_config=config
        )
        framework.fit(shapes=shapes)
        supervised = LMKGS(
            lubm_store,
            ("star", "chain"),
            2,
            LMKGSConfig(hidden_sizes=(32,), epochs=2),
        )
        supervised.fit(
            [r for workload in workloads.values() for r in workload]
        )
        universal = UniversalLMKGU(lubm_store, shapes, config)
        universal.fit()
        star, chain = (
            framework.models[framework.grouping.key(topology, size)]
            for topology, size in shapes
        )
        assert type(star) is LMKGU and type(chain) is LMKGU
        for model, topologies in (
            (star, ("star",)),
            (chain, ("chain",)),
            (universal, ("star", "chain")),
            (supervised, ("star", "chain")),
            (framework, ("star", "chain")),
        ):
            for topology in topologies:
                for record in workloads[topology].records[:5]:
                    assert model.estimate(record.query) == float(
                        model.estimate_batch([record.query])[0]
                    ), (type(model).__name__, topology)
        for record in workloads["star"].records[:5]:
            assert framework.estimate(record.query) == star.estimate(
                record.query
            )
