"""Versioned checkpoint artifacts: schema gate, checksums, typed errors."""

import json
import shutil

import pytest

from repro.core.framework import LMKG
from repro.serve import EstimatorService, ServiceError
from repro.serve.artifacts import (
    ARTIFACT_FILENAME,
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    load_artifact,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.faults import CORRUPTION_MODES, corrupt_checkpoint


@pytest.fixture()
def artifact_ckpt(service, tmp_path):
    """A fresh save_checkpoint directory (framework + artifact.json)."""
    path = tmp_path / "ckpt"
    save_checkpoint(service.framework, path)
    return path


class TestWriteAndLoad:
    def test_save_checkpoint_writes_artifact(self, artifact_ckpt):
        assert (artifact_ckpt / ARTIFACT_FILENAME).is_file()
        payload = json.loads(
            (artifact_ckpt / ARTIFACT_FILENAME).read_text()
        )
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        # One record: the model files and artifact.json, nothing else.
        files = sorted(entry["file"] for entry in payload["models"])
        assert sorted(p.name for p in artifact_ckpt.iterdir()) == sorted(
            files + [ARTIFACT_FILENAME]
        )
        assert payload["trained_shapes"]  # star:2 / chain:2 fitted

    def test_load_artifact_roundtrip(self, artifact_ckpt):
        artifact = load_artifact(artifact_ckpt)
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION == 3
        assert artifact.shapes.covered  # non-empty coverage

    def test_load_checkpoint_returns_live_framework(
        self, artifact_ckpt, service, star_queries
    ):
        framework, artifact = load_checkpoint(
            artifact_ckpt, service.store
        )
        values = framework.estimate_batch(star_queries[:4])
        assert values.shape == (4,)
        assert artifact.shapes.covered

    def test_write_artifact_requires_saved_framework(
        self, service, tmp_path
    ):
        """The artifact is only ever written by a complete save: a
        framework with nothing to save leaves no gate-passing record."""
        with pytest.raises(RuntimeError, match="before fit"):
            save_checkpoint(LMKG(service.store), tmp_path / "nowhere")
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(tmp_path / "nowhere")
        assert excinfo.value.reason == "missing"

    def test_bare_framework_save_is_a_gated_checkpoint(
        self, checkpoint_dir, artifact_ckpt
    ):
        # checkpoint_dir fixture is a bare framework.save(): the same
        # artifact save_checkpoint writes, checksums and shapes included.
        artifact = load_artifact(checkpoint_dir)
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION
        assert artifact.shapes.covered
        assert artifact.store["num_triples"] > 0
        # The model CRCs differ between two saves (npz members carry a
        # timestamp); everything serving reads is the same.
        twin = load_artifact(artifact_ckpt)
        assert (artifact.shapes, artifact.store) == (
            twin.shapes,
            twin.store,
        )


class TestArtifactRequired:
    """A directory whose ``artifact.json`` is gone is not a checkpoint:
    deleting the record must not turn the checksum gate off."""

    @pytest.fixture()
    def stripped(self, artifact_ckpt, tmp_path):
        target = tmp_path / "stripped"
        shutil.copytree(artifact_ckpt, target)
        (target / ARTIFACT_FILENAME).unlink()
        return target

    def test_load_artifact_refuses(self, stripped):
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(stripped)
        assert excinfo.value.reason == "missing"

    def test_load_checkpoint_refuses(self, stripped, service):
        with pytest.raises(ArtifactError) as excinfo:
            load_checkpoint(stripped, service.store)
        assert excinfo.value.reason == "missing"

    def test_service_from_snapshot_refuses(self, stripped, snapshot_dir):
        with pytest.raises(ServiceError) as excinfo:
            EstimatorService.from_snapshot(snapshot_dir, stripped)
        assert excinfo.value.__cause__.reason == "missing"

    def test_artifact_without_shapes_is_corrupt(
        self, artifact_ckpt, tmp_path
    ):
        target = tmp_path / "shapeless"
        shutil.copytree(artifact_ckpt, target)
        record = target / ARTIFACT_FILENAME
        payload = json.loads(record.read_text())
        del payload["trained_shapes"]
        record.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(target)
        assert excinfo.value.reason == "corrupt"


class TestGate:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(tmp_path / "void")
        assert excinfo.value.reason == "missing"

    def test_truncated_model_fails_checksum(
        self, artifact_ckpt, tmp_path
    ):
        target = tmp_path / "damaged"
        shutil.copytree(artifact_ckpt, target)
        corrupt_checkpoint(target, "truncate-model")
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(target)
        assert excinfo.value.reason == "checksum"

    def test_garbage_artifact_is_corrupt(
        self, artifact_ckpt, tmp_path
    ):
        target = tmp_path / "damaged"
        shutil.copytree(artifact_ckpt, target)
        corrupt_checkpoint(target, "garbage-artifact")
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(target)
        assert excinfo.value.reason == "corrupt"

    def test_future_schema_is_incompatible(
        self, artifact_ckpt, tmp_path
    ):
        target = tmp_path / "damaged"
        shutil.copytree(artifact_ckpt, target)
        corrupt_checkpoint(target, "future-schema")
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(target)
        assert excinfo.value.reason == "incompatible"

    def test_missing_checksummed_file(self, artifact_ckpt, tmp_path):
        target = tmp_path / "damaged"
        shutil.copytree(artifact_ckpt, target)
        next(target.glob("model_*.npz")).unlink()
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(target)
        assert excinfo.value.reason == "checksum"

    def test_all_corruption_modes_rejected(
        self, artifact_ckpt, tmp_path
    ):
        """Every chaos corruption mode yields a typed rejection."""
        for mode in CORRUPTION_MODES:
            target = tmp_path / f"damaged-{mode}"
            shutil.copytree(artifact_ckpt, target)
            corrupt_checkpoint(target, mode)
            with pytest.raises(ArtifactError):
                load_artifact(target)

    def test_parent_format_is_incompatible(
        self, artifact_ckpt, tmp_path, service, damage_checkpoint
    ):
        """A checkpoint the previous release saved — ``manifest.json``
        beside a schema-2 ``artifact.json`` — is refused by version."""
        target = tmp_path / "parent"
        shutil.copytree(artifact_ckpt, target)
        damage_checkpoint(target, "parent-format")
        with pytest.raises(ArtifactError) as excinfo:
            load_checkpoint(target, service.store)
        assert excinfo.value.reason == "incompatible"

    @pytest.mark.parametrize(
        "name", ["../model_0.npz", "/abs/model_0.npz", "..", "", "sub/m"]
    )
    def test_file_names_stay_inside_the_checkpoint(
        self, artifact_ckpt, tmp_path, service, name
    ):
        """A listed model file must be a plain name inside the
        checkpoint; an absolute or ``..`` path is corrupt, even when the
        file it points at exists with the recorded CRC."""
        target = tmp_path / "copy"
        shutil.copytree(artifact_ckpt, target)
        (tmp_path / "model_0.npz").write_bytes(
            (target / "model_0.npz").read_bytes()
        )
        record = json.loads((target / ARTIFACT_FILENAME).read_text())
        record["models"][0]["file"] = name.replace(
            "/abs", str(tmp_path)
        )
        (target / ARTIFACT_FILENAME).write_text(json.dumps(record))
        with pytest.raises(ArtifactError) as excinfo:
            load_checkpoint(target, service.store)
        assert excinfo.value.reason == "corrupt"
        with pytest.raises(ArtifactError) as excinfo:  # pool workers
            LMKG.load(target, service.store)
        assert excinfo.value.reason == "corrupt"

    def test_load_checkpoint_gates_before_weights(
        self, artifact_ckpt, tmp_path, service
    ):
        target = tmp_path / "damaged"
        shutil.copytree(artifact_ckpt, target)
        corrupt_checkpoint(target, "truncate-model")
        # The typed gate error fires, not a np.load parse explosion.
        with pytest.raises(ArtifactError) as excinfo:
            load_checkpoint(target, service.store)
        assert excinfo.value.reason == "checksum"
