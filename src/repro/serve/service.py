"""The estimator service: snapshot + model behind one batched facade.

:class:`EstimatorService` is what the HTTP layer (and the bench/tests)
talk to.  It owns

- a **read-only store** attached from a memory-mapped snapshot directory
  (the same ``TripleStore.load_snapshot`` image the parallel-labeling
  workers share — pages are mapped once, never copied), and
- an **LMKG framework** speaking the unified
  :class:`~repro.core.estimator.Estimator` protocol, either loaded from
  an ``LMKG.save`` checkpoint directory or — for zero-setup serving —
  fitted from the snapshot at startup with small deterministic defaults.

The service parses SPARQL request text against the snapshot's term
dictionary and delegates estimation to ``framework.estimate_batch``, so
a request served here is answered by exactly the code path a library
caller gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.framework import LMKG
from repro.core.lmkg_s import LMKGSConfig
from repro.rdf.parser import ParseError, parse_sparql
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore


class ServiceError(RuntimeError):
    """The service cannot be constructed (bad snapshot/checkpoint)."""


#: deterministic defaults for checkpoint-less serving: small enough to
#: fit at startup in seconds at smoke scales, seeded so two processes
#: fitting from the same snapshot build bit-identical models (the CI
#: smoke test relies on this).
DEFAULT_FIT_SHAPES: Tuple[Tuple[str, int], ...] = (
    ("star", 2),
    ("chain", 2),
)
DEFAULT_FIT_QUERIES = 300
DEFAULT_FIT_EPOCHS = 15
DEFAULT_FIT_HIDDEN: Tuple[int, ...] = (64, 64)
DEFAULT_FIT_SEED = 0


@dataclass(frozen=True)
class FitDefaults:
    """Startup-fit knobs for checkpoint-less serving."""

    shapes: Tuple[Tuple[str, int], ...] = DEFAULT_FIT_SHAPES
    queries_per_shape: int = DEFAULT_FIT_QUERIES
    epochs: int = DEFAULT_FIT_EPOCHS
    hidden_sizes: Tuple[int, ...] = DEFAULT_FIT_HIDDEN
    seed: int = DEFAULT_FIT_SEED


def default_framework(
    store: TripleStore, defaults: Optional[FitDefaults] = None
) -> LMKG:
    """Fit the deterministic default framework used when no checkpoint
    is given; importable so clients can rebuild the identical model."""
    defaults = defaults or FitDefaults()
    framework = LMKG(
        store,
        model_type="supervised",
        grouping="size",
        lmkgs_config=LMKGSConfig(
            hidden_sizes=defaults.hidden_sizes,
            epochs=defaults.epochs,
            seed=defaults.seed,
        ),
        seed=defaults.seed,
    )
    framework.fit(
        shapes=list(defaults.shapes),
        queries_per_shape=defaults.queries_per_shape,
    )
    return framework


class EstimatorService:
    """Parses request queries and answers them through one framework."""

    def __init__(self, store: TripleStore, framework: LMKG) -> None:
        if store.dictionary is None:
            raise ServiceError(
                "the served store has no term dictionary; queries "
                "cannot be parsed (save the snapshot from a "
                "dictionary-encoded store)"
            )
        self.store = store
        self.framework = framework
        #: the gate-checked checkpoint artifact this framework was
        #: loaded from (None for startup-fitted frameworks); see
        #: :mod:`repro.serve.artifacts`.
        self.artifact = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        snapshot_dir: Union[str, Path],
        checkpoint_dir: Union[str, Path, None] = None,
        fit_defaults: Optional[FitDefaults] = None,
    ) -> "EstimatorService":
        """Attach to a snapshot and load (or fit) the framework.

        The snapshot is checksum-verified once here; a checkpoint, when
        given, must have been saved against the same graph.
        """
        from repro.core.framework import CheckpointError
        from repro.rdf.columnar import SnapshotError

        try:
            store = TripleStore.load_snapshot(snapshot_dir)
        except SnapshotError as exc:
            raise ServiceError(f"snapshot load failed: {exc}") from exc
        if store.dictionary is None:
            # Reject before the (potentially long) startup fit.
            raise ServiceError(
                "the served store has no term dictionary; queries "
                "cannot be parsed (save the snapshot from a "
                "dictionary-encoded store)"
            )
        artifact = None
        if checkpoint_dir is not None:
            from repro.serve.artifacts import load_checkpoint

            try:
                framework, artifact = load_checkpoint(
                    checkpoint_dir, store
                )
            except CheckpointError as exc:
                raise ServiceError(
                    f"checkpoint load failed: {exc}"
                ) from exc
        else:
            framework = default_framework(store, fit_defaults)
        service = cls(store, framework)
        service.artifact = artifact
        return service

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------

    def parse_query(self, text: str) -> QueryPattern:
        """SPARQL request text -> QueryPattern (ParseError on garbage)."""
        if not isinstance(text, str):
            raise ParseError(
                f"query must be a SPARQL string, got {type(text).__name__}"
            )
        return parse_sparql(text, self.store.dictionary)

    def parse_queries(
        self, texts: Sequence[str]
    ) -> List[QueryPattern]:
        return [self.parse_query(text) for text in texts]

    def estimate_batch(
        self, queries: Sequence[QueryPattern]
    ) -> np.ndarray:
        """Delegates to the framework (the protocol's batched surface)."""
        return self.framework.estimate_batch(queries)

    # ------------------------------------------------------------------
    # Introspection (healthz)
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "triples": len(self.store),
            "nodes": self.store.num_nodes,
            "predicates": self.store.num_predicates,
            "models": self.framework.num_models(),
            "model_type": self.framework.model_type,
            "grouping": self.framework.grouping.name,
            "model_bytes": self.framework.memory_bytes(),
            "checkpoint_bytes": self.framework.checkpoint_bytes(),
        }
