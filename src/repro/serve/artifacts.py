"""Versioned checkpoint artifacts with a compatibility gate.

A serving fleet rolls forward and back across checkpoint *formats*, not
just weights: a node running last week's code must refuse next week's
checkpoint loudly.  Every ``LMKG.save`` directory carries one
schema-versioned ``artifact.json`` (the release-artifact idiom: each
artifact declares ``schema_version``, and a reader names the version it
can consume) recording

- the **artifact schema version**,
- everything :meth:`~repro.core.framework.LMKG.load` rebuilds from:
  model type, seed, grouping strategy and one entry per model file,
- a **content checksum per model file** (CRC32), so bit rot and
  half-written copies are caught at the gate instead of deep inside
  ``np.load``,
- the **trained-shape manifest** (:mod:`repro.serve.admission`), so
  admission control works from the artifact alone without loading a
  single weight,
- the **store fingerprint** of the training graph.

:func:`~repro.core.framework.read_artifact` is the one parser; this
module wraps its result for the serving layer.  Every failure is a
typed :class:`ArtifactError` whose ``reason`` is a stable
machine-readable code (``corrupt`` / ``incompatible`` / ``checksum`` /
``missing``) — a fleet can alert on *which* gate fired, and the HTTP
reload endpoint maps them to a structured 409.  A directory without
``artifact.json`` is not a checkpoint (``missing``): the artifact is
written last, so its absence means an incomplete or tampered save.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

from repro.core.framework import (  # the gate's names, re-exported
    ARTIFACT_FILENAME,
    ARTIFACT_SCHEMA_VERSION,
    LMKG,
    ArtifactError,
    read_artifact,
)
from repro.serve.admission import ShapeManifest


@dataclass(frozen=True)
class CheckpointArtifact:
    """What serving reads from a gate-checked ``artifact.json``."""

    schema_version: int
    #: trained-shape manifest.
    shapes: ShapeManifest
    #: store fingerprint of the training graph (informational here;
    #: LMKG.load verifies it against the live store).
    store: Dict[str, object]

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "CheckpointArtifact":
        return cls(
            schema_version=int(record["schema_version"]),
            shapes=ShapeManifest.from_dict(record["trained_shapes"]),
            store=record["store"],
        )


def load_artifact(path: Union[str, Path]) -> CheckpointArtifact:
    """Parse + gate-check the artifact at *path* (no weights loaded).

    Raises :class:`ArtifactError` with a typed ``reason`` on any gate
    failure.
    """
    return CheckpointArtifact.from_record(read_artifact(Path(path)))


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
    ``allow_stale_store`` forwards to :meth:`LMKG.from_artifact` — the
    incremental-maintenance path, which loads a checkpoint against a
    graph that has drifted since training in order to fine-tune it.
    """
    path = Path(path)
    record = read_artifact(path)
    artifact = CheckpointArtifact.from_record(record)
    framework = LMKG.from_artifact(
        path, record, store, allow_stale_store=allow_stale_store
    )
    return framework, artifact
