"""Round-trip tests for LMKG-S and LMKG-U checkpoints."""

import numpy as np
import pytest

from repro.core.lmkg_s import LMKGS, LMKGSConfig
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.sampling import generate_workload


@pytest.fixture(scope="module")
def lubm_store():
    from repro.datasets import load_dataset

    return load_dataset("lubm", scale=0.5, seed=1)


@pytest.fixture(scope="module")
def star_workload(lubm_store):
    return generate_workload(lubm_store, "star", 2, 200, seed=70)


class TestLMKGSCheckpoint:
    def test_roundtrip_identical_estimates(
        self, lubm_store, star_workload, tmp_path
    ):
        model = LMKGS(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(hidden_sizes=(32, 32), epochs=8),
        )
        model.fit(star_workload.records)
        path = tmp_path / "lmkgs.npz"
        model.save(path)
        restored = LMKGS.load(path, lubm_store)
        queries = [r.query for r in star_workload.records[:25]]
        assert np.allclose(
            model.estimate_batch(queries),
            restored.estimate_batch(queries),
        )

    def test_metadata_restored(self, lubm_store, star_workload, tmp_path):
        config = LMKGSConfig(
            encoding="pattern",
            term_encoding="binary",
            hidden_sizes=(16,),
            epochs=3,
        )
        model = LMKGS(lubm_store, ["star"], 2, config)
        model.fit(star_workload.records[:100])
        path = tmp_path / "p.npz"
        model.save(path)
        restored = LMKGS.load(path, lubm_store)
        assert restored.config.encoding == "pattern"
        assert restored.topologies == ("star",)
        assert restored.max_size == 2
        assert restored.scaler.span == pytest.approx(model.scaler.span)

    def test_save_before_fit_rejected(self, lubm_store, tmp_path):
        model = LMKGS(lubm_store, ["star"], 2)
        with pytest.raises(RuntimeError):
            model.save(tmp_path / "x.npz")


class TestLMKGUCheckpoint:
    def test_roundtrip_identical_estimates(
        self, lubm_store, star_workload, tmp_path
    ):
        model = LMKGU(
            lubm_store,
            "star",
            2,
            LMKGUConfig(
                hidden_sizes=(32, 32),
                epochs=1,
                training_samples=1_500,
                particles=64,
            ),
        )
        model.fit()
        path = tmp_path / "lmkgu.npz"
        model.save(path)
        restored = LMKGU.load(path, lubm_store)
        assert restored.universe == model.universe
        assert restored.topology == "star"
        assert restored.size == 2
        for record in star_workload.records[:10]:
            assert restored.estimate(record.query) == pytest.approx(
                model.estimate(record.query)
            )

    def test_save_before_fit_rejected(self, lubm_store, tmp_path):
        model = LMKGU(lubm_store, "star", 2)
        with pytest.raises(RuntimeError):
            model.save(tmp_path / "x.npz")


class TestFrameworkCheckpoint:
    """LMKG.save/load: the whole façade round-trips as one directory."""

    @pytest.fixture(scope="class")
    def fitted(self, lubm_store):
        from repro.core.framework import LMKG

        framework = LMKG(
            lubm_store,
            model_type="supervised",
            grouping="size",
            lmkgs_config=LMKGSConfig(hidden_sizes=(32, 32), epochs=8),
        )
        framework.fit(
            shapes=[("star", 2), ("chain", 2)], queries_per_shape=150
        )
        return framework

    def test_roundtrip_identical_estimates(
        self, lubm_store, fitted, tmp_path
    ):
        from repro.core.framework import LMKG
        from repro.sampling import generate_workload

        fitted.save(tmp_path / "ckpt")
        restored = LMKG.load(tmp_path / "ckpt", lubm_store)
        star = generate_workload(lubm_store, "star", 2, 15, seed=91)
        chain = generate_workload(lubm_store, "chain", 2, 15, seed=92)
        queries = [r.query for r in list(star) + list(chain)]
        assert (
            restored.estimate_batch(queries).tolist()
            == fitted.estimate_batch(queries).tolist()
        )

    def test_manifest_and_routing_metadata(
        self, lubm_store, fitted, tmp_path
    ):
        import json

        from repro.core.framework import LMKG

        fitted.save(tmp_path / "meta")
        # One record: model files plus artifact.json, written last.
        assert sorted(p.name for p in (tmp_path / "meta").iterdir()) == [
            "artifact.json"
        ] + [f"model_{i}.npz" for i in range(fitted.num_models())]
        record = json.loads(
            (tmp_path / "meta" / "artifact.json").read_text()
        )
        assert record["schema_version"] == 3
        assert record["grouping"]["name"] == "size"
        assert record["model_type"] == "supervised"
        restored = LMKG.load(tmp_path / "meta", lubm_store)
        assert restored.num_models() == fitted.num_models()
        assert restored._group_max_size == fitted._group_max_size
        assert restored._group_topologies == fitted._group_topologies
        assert restored.grouping.name == fitted.grouping.name

    def test_specialized_tuple_keys_roundtrip(
        self, lubm_store, star_workload, tmp_path
    ):
        from repro.core.framework import LMKG

        framework = LMKG(
            lubm_store,
            grouping="specialized",
            lmkgs_config=LMKGSConfig(hidden_sizes=(16,), epochs=3),
        )
        framework.fit(
            shapes=[("star", 2)], workload=star_workload.records[:100]
        )
        framework.save(tmp_path / "spec")
        restored = LMKG.load(tmp_path / "spec", lubm_store)
        assert ("star", 2) in restored.models

    def test_unsupervised_roundtrip(self, lubm_store, tmp_path):
        from repro.core.framework import LMKG

        framework = LMKG(
            lubm_store,
            model_type="unsupervised",
            lmkgu_config=LMKGUConfig(
                embed_dim=8,
                hidden_sizes=(16,),
                epochs=1,
                training_samples=800,
                particles=32,
            ),
        )
        framework.fit(shapes=[("star", 2)])
        framework.save(tmp_path / "unsup")
        restored = LMKG.load(tmp_path / "unsup", lubm_store)
        assert restored.model_type == "unsupervised"
        assert isinstance(restored.models[("star", 2)], LMKGU)
        # The round trip preserves the float64 training masters exactly
        # (the fused float32 inference caches are derived, not stored).
        original = framework.models[("star", 2)].model
        loaded = restored.models[("star", 2)].model
        for a, b in zip(original.parameters(), loaded.parameters()):
            assert b.value.dtype == np.float64
            assert np.array_equal(a.value, b.value), a.name

    def test_save_before_fit_rejected(self, lubm_store, tmp_path):
        from repro.core.framework import LMKG

        with pytest.raises(RuntimeError):
            LMKG(lubm_store).save(tmp_path / "x")

    def test_load_against_different_graph_rejected(
        self, fitted, tmp_path
    ):
        """A checkpoint must refuse a store it was not trained on —
        matching encoder widths would otherwise serve garbage."""
        from repro.core.framework import CheckpointError, LMKG
        from repro.datasets import load_dataset

        other = load_dataset("lubm", scale=0.25, seed=9)
        fitted.save(tmp_path / "mismatch")
        with pytest.raises(CheckpointError, match="different graph"):
            LMKG.load(tmp_path / "mismatch", other)

    def test_load_missing_or_corrupt_rejected(
        self, lubm_store, fitted, tmp_path
    ):
        from repro.core.framework import CheckpointError, LMKG

        with pytest.raises(CheckpointError, match="no checkpoint"):
            LMKG.load(tmp_path / "nope", lubm_store)
        fitted.save(tmp_path / "bad")
        (tmp_path / "bad" / "artifact.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            LMKG.load(tmp_path / "bad", lubm_store)
