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

The names below are exported lazily (PEP 562): each loads its module on
first access.  A pool worker (:mod:`repro.serve.worker`) imports
:mod:`repro.serve.faults` and so runs this file; it must not load the
HTTP, app and scheduler layers it never uses.
"""

import importlib

#: exported name -> the submodule of this package that defines it.
_EXPORTS = {
    "AdmissionError": "admission",
    "ShapeManifest": "admission",
    "ServingApp": "app",
    "ARTIFACT_SCHEMA_VERSION": "artifacts",
    "ArtifactError": "artifacts",
    "CheckpointArtifact": "artifacts",
    "load_artifact": "artifacts",
    "load_checkpoint": "artifacts",
    "save_checkpoint": "artifacts",
    "CORRUPTION_MODES": "faults",
    "FaultInjector": "faults",
    "FaultSpec": "faults",
    "FaultSpecError": "faults",
    "InjectedFault": "faults",
    "corrupt_checkpoint": "faults",
    "DEFAULT_HOST": "http",
    "DEFAULT_PORT": "http",
    "EstimatorHTTPServer": "http",
    "make_server": "http",
    "BatchScheduler": "scheduler",
    "QueueFullError": "scheduler",
    "SchedulerClosedError": "scheduler",
    "DEFAULT_FIT_EPOCHS": "service",
    "DEFAULT_FIT_HIDDEN": "service",
    "DEFAULT_FIT_QUERIES": "service",
    "DEFAULT_FIT_SEED": "service",
    "DEFAULT_FIT_SHAPES": "service",
    "EstimatorService": "service",
    "FitDefaults": "service",
    "ServiceError": "service",
    "default_framework": "service",
    "CircuitBreaker": "supervisor",
    "NoWorkersError": "supervisor",
    "ReloadError": "supervisor",
    "ResilientBackend": "supervisor",
    "ServingRuntime": "supervisor",
    "ServingWorkerError": "supervisor",
    "SupervisedPool": "supervisor",
    "SupervisorError": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

