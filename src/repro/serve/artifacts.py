"""Versioned checkpoint artifacts with a compatibility gate.

A serving fleet rolls forward and back across checkpoint *formats*, not
just weights: a node running last week's code must refuse next week's
checkpoint loudly.  Every ``LMKG.save`` directory carries a
schema-versioned ``artifact.json`` (the release-artifact idiom: each
artifact declares ``schema_version``, and a reader carries an explicit
set of versions it can consume) recording

- the **artifact schema version** and the framework manifest format it
  wraps,
- a **content checksum per file** (CRC32 of ``manifest.json`` and every
  ``model_*.npz``), so bit rot and half-written copies are caught at the
  gate instead of deep inside ``np.load``,
- the **trained-shape manifest** (:mod:`repro.serve.admission`), so
  admission control works from the artifact alone without loading a
  single weight.

Every failure is a typed :class:`ArtifactError` whose ``reason`` is a
stable machine-readable code (``corrupt`` / ``incompatible`` /
``checksum`` / ``missing``) — a fleet can alert on *which* gate fired,
and the HTTP reload endpoint maps them to a structured 409.  A directory
without ``artifact.json`` is not a checkpoint (``missing``): the artifact
is written last, so its absence means an incomplete or tampered save.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.core.framework import (
    ARTIFACT_FILENAME,
    ARTIFACT_SCHEMA_VERSION,
    LMKG,
    file_crc32,
)
from repro.serve.admission import ShapeManifest

#: the schema versions this code can consume.
SUPPORTED_SCHEMA_VERSIONS: Tuple[int, ...] = (ARTIFACT_SCHEMA_VERSION,)


class ArtifactError(RuntimeError):
    """A checkpoint artifact failed the gate.

    ``reason`` codes:

    - ``missing`` — no ``artifact.json`` at the path;
    - ``corrupt`` — artifact present but unreadable;
    - ``checksum`` — a checkpoint file does not match its recorded CRC;
    - ``incompatible`` — a schema version this reader does not support.
    """

    def __init__(self, message: str, reason: str = "corrupt") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class CheckpointArtifact:
    """The parsed, gate-checked content of an ``artifact.json``."""

    schema_version: int
    checkpoint_dir: Path
    #: relative filename -> CRC32.
    file_checksums: Dict[str, int]
    #: trained-shape manifest.
    shapes: ShapeManifest
    #: store fingerprint copied from the framework manifest (informational
    #: here; LMKG.load re-verifies it against the live store).
    store: Dict[str, object]


def load_artifact(path: Union[str, Path]) -> CheckpointArtifact:
    """Parse + gate-check the artifact at *path* (no weights loaded).

    Raises :class:`ArtifactError` with a typed ``reason`` on any gate
    failure.
    """
    path = Path(path)
    artifact_path = path / ARTIFACT_FILENAME
    if not artifact_path.is_file():
        raise ArtifactError(
            f"no checkpoint at {path} (no {ARTIFACT_FILENAME})",
            reason="missing",
        )
    try:
        payload = json.loads(artifact_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(
            f"corrupt artifact at {artifact_path}: {exc}",
            reason="corrupt",
        ) from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ArtifactError(
            f"artifact at {artifact_path} has no schema_version",
            reason="corrupt",
        )
    version = payload["schema_version"]
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ArtifactError(
            f"checkpoint artifact schema version {version!r} is not "
            f"supported by this reader (supports "
            f"{list(SUPPORTED_SCHEMA_VERSIONS)}); roll the serving "
            "fleet forward, or re-save the checkpoint with this "
            "version",
            reason="incompatible",
        )
    checksums = payload.get("file_checksums")
    shapes = payload.get("trained_shapes")
    if not isinstance(checksums, dict) or not isinstance(shapes, dict):
        raise ArtifactError(
            "artifact file_checksums and trained_shapes must be objects",
            reason="corrupt",
        )
    for name, expected in sorted(checksums.items()):
        target = path / name
        if not target.is_file():
            raise ArtifactError(
                f"checkpoint file {name} listed in the artifact is "
                "missing",
                reason="checksum",
            )
        actual = file_crc32(target)
        if actual != expected:
            raise ArtifactError(
                f"checkpoint file {name} fails its content checksum "
                f"(recorded {expected}, actual {actual}) — the "
                "checkpoint is corrupt or was partially copied",
                reason="checksum",
            )
    return CheckpointArtifact(
        schema_version=int(version),
        checkpoint_dir=path,
        file_checksums={
            str(k): int(v) for k, v in checksums.items()
        },
        shapes=ShapeManifest.from_dict(shapes),
        store=payload.get("store", {}),
    )


def save_checkpoint(framework, path: Union[str, Path]) -> Path:
    """``framework.save(path)``; returns the path of ``artifact.json``."""
    return framework.save(path)


def load_checkpoint(
    path: Union[str, Path], store, allow_stale_store: bool = False
):
    """Gate-check then load a framework checkpoint.

    Returns ``(framework, artifact)``.  The artifact gate runs first —
    a corrupt or incompatible checkpoint is rejected with a typed
    :class:`ArtifactError` before any weight file is opened; framework-
    level failures (graph fingerprint mismatch) still surface as
    :class:`~repro.core.framework.CheckpointError`.
    ``allow_stale_store`` forwards to :meth:`LMKG.load` — the
    incremental-maintenance path, which loads a checkpoint against a
    graph that has drifted since training in order to fine-tune it.
    """
    artifact = load_artifact(path)
    framework = LMKG.load(
        path, store, allow_stale_store=allow_stale_store
    )
    return framework, artifact
