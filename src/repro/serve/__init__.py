"""Micro-batched serving of the estimation API (``python -m repro serve``).

The execution-phase story of the paper at production shape: a query
optimizer (here: any HTTP client) asks for cardinalities at high
frequency, and the server answers through the same
:class:`~repro.core.estimator.Estimator` protocol every library caller
uses — ``estimate_batch(queries) -> np.ndarray`` — with the layers on
top:

- :class:`EstimatorService` (:mod:`repro.serve.service`) — loads a
  read-only memory-mapped store snapshot plus an ``LMKG.save``
  checkpoint (or fits deterministic defaults), and parses SPARQL
  request text;
- :class:`BatchScheduler` (:mod:`repro.serve.scheduler`) — dispatches
  as soon as the estimator is free and coalesces the requests that
  queued behind the batch in flight (capped by max-batch), with
  queue-full load shedding;
- the HTTP endpoint (:mod:`repro.serve.http`) — a stdlib
  ``ThreadingHTTPServer`` exposing ``POST /estimate``,
  ``POST /admin/reload``, ``GET /healthz``, and ``GET /stats``;
- the fault-tolerance layer (:mod:`repro.serve.supervisor`) —
  :class:`SupervisedPool` (supervised workers with per-request
  timeouts, backoff restarts, and sibling retry),
  :class:`CircuitBreaker` + :class:`ResilientBackend` (graceful
  degradation onto the independence baseline), and
  :class:`ServingRuntime` (zero-downtime checkpoint hot-reload);
- checkpoint integrity (:mod:`repro.serve.artifacts`) — schema-versioned
  artifacts with a compatibility gate and per-file checksums;
- admission control (:mod:`repro.serve.admission`) — the trained-shape
  manifest that 422s uncovered query shapes at parse time;
- chaos tooling (:mod:`repro.serve.faults`) — deterministic fault
  injection (kills, hangs, delays, poison queries, checkpoint
  corruption) for the chaos test suite.

:class:`ServingApp` (:mod:`repro.serve.app`) is the composition root:
the one place these layers are wired together and torn down.
"""

from repro.serve.admission import AdmissionError, ShapeManifest
from repro.serve.app import ServingApp
from repro.serve.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    CheckpointArtifact,
    load_artifact,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.faults import (
    CORRUPTION_MODES,
    FaultInjector,
    FaultSpec,
    FaultSpecError,
    InjectedFault,
    corrupt_checkpoint,
)
from repro.serve.http import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    EstimatorHTTPServer,
    make_server,
)
from repro.serve.scheduler import (
    BatchScheduler,
    QueueFullError,
    SchedulerClosedError,
)
from repro.serve.service import (
    DEFAULT_FIT_EPOCHS,
    DEFAULT_FIT_HIDDEN,
    DEFAULT_FIT_QUERIES,
    DEFAULT_FIT_SEED,
    DEFAULT_FIT_SHAPES,
    EstimatorService,
    FitDefaults,
    ServiceError,
    default_framework,
)
from repro.serve.supervisor import (
    CircuitBreaker,
    NoWorkersError,
    ReloadError,
    ResilientBackend,
    ServingRuntime,
    ServingWorkerError,
    SupervisedPool,
    SupervisorError,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "AdmissionError",
    "ArtifactError",
    "BatchScheduler",
    "CORRUPTION_MODES",
    "CheckpointArtifact",
    "CircuitBreaker",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_FIT_EPOCHS",
    "DEFAULT_FIT_HIDDEN",
    "DEFAULT_FIT_QUERIES",
    "DEFAULT_FIT_SEED",
    "DEFAULT_FIT_SHAPES",
    "EstimatorHTTPServer",
    "EstimatorService",
    "FaultInjector",
    "FaultSpec",
    "FaultSpecError",
    "FitDefaults",
    "InjectedFault",
    "NoWorkersError",
    "QueueFullError",
    "ReloadError",
    "ResilientBackend",
    "SchedulerClosedError",
    "ServiceError",
    "ServingApp",
    "ServingRuntime",
    "ServingWorkerError",
    "ShapeManifest",
    "SupervisedPool",
    "SupervisorError",
    "corrupt_checkpoint",
    "default_framework",
    "load_artifact",
    "load_checkpoint",
    "make_server",
    "save_checkpoint",
]
