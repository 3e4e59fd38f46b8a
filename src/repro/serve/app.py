"""The composition root of the serving stack.

Every serving number the repo reports comes from one chain —
:class:`~repro.serve.service.EstimatorService` →
:class:`~repro.serve.supervisor.SupervisedPool` →
:class:`~repro.serve.supervisor.ResilientBackend` (with its
:class:`~repro.serve.supervisor.CircuitBreaker`) →
:class:`~repro.serve.scheduler.BatchScheduler` →
:class:`~repro.serve.supervisor.ServingRuntime` →
:func:`~repro.serve.http.make_server` — and :class:`ServingApp` is the
one place that assembles it and the one place that takes it apart.
``repro serve``, the replay harness and the serve/replay test fixtures
all build through it, in one configuration: every serving value is the
default of the class that owns it.
"""

from __future__ import annotations

import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Optional, Union

from repro.baselines.independence import IndependenceEstimator
from repro.serve import artifacts
from repro.serve.admission import ShapeManifest
from repro.serve.faults import FaultSpec
from repro.serve.http import DEFAULT_HOST, DEFAULT_PORT, make_server
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import EstimatorService, FitDefaults
from repro.serve.supervisor import (
    ResilientBackend,
    ServingRuntime,
    SupervisedPool,
)


class ServingApp:
    """A bound, fully wired estimation server and everything it owns.

    Construction loads (or startup-fits) the model, starts the worker
    pool when ``workers > 1`` and binds the listening socket; nothing
    is served until :meth:`start` or :meth:`serve_forever`.  A failure
    part-way through releases what was already built.

    Args:
        snapshot: store snapshot directory to serve.
        checkpoint: trained checkpoint directory; None = fit
            *fit_defaults* from the snapshot at startup.
        save_checkpoint: write the served framework here and serve from
            it.  A startup-fit behind a pool is checkpointed to a
            scratch directory when no path is given — workers rebuild
            the framework from disk.
        host / port: where to listen (``port=0``: ephemeral).
        workers: > 1 serves through a :class:`SupervisedPool`.
        fit_defaults: the startup-fit recipe when *checkpoint* is None.
        fault_spec: chaos testing; shipped to the workers of a pool,
            else injected into the in-process backend.

    Every other serving value is the default of the layer that owns it
    (``BatchScheduler.MAX_*``, ``SupervisedPool.REQUEST_TIMEOUT`` /
    ``RESTART_BUDGET``, ``CircuitBreaker.FAILURE_THRESHOLD`` /
    ``RESET_TIMEOUT_S``, ``FreshnessPolicy()``).  Model-path failures
    always degrade onto the independence baseline and uncovered shapes
    are always 422'd at parse time.  A test that needs another value
    sets the layer's attribute after construction, e.g.
    ``app.scheduler.max_queue = 1``.
    """

    def __init__(
        self,
        snapshot: Union[str, Path],
        checkpoint: Union[str, Path, None] = None,
        *,
        save_checkpoint: Union[str, Path, None] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = 1,
        fit_defaults: Optional[FitDefaults] = None,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        self.snapshot_dir = str(snapshot)
        self.pool = self.scheduler = self.server = None
        self._scratch = self._thread = None
        self._serving = False
        self._close_lock = threading.Lock()
        self._drained: Optional[bool] = None
        try:
            self.service = EstimatorService.from_snapshot(
                self.snapshot_dir, checkpoint, fit_defaults
            )
            if (
                workers > 1
                and checkpoint is None
                and save_checkpoint is None
            ):
                self._scratch = tempfile.TemporaryDirectory(
                    prefix="repro-serve-"
                )
                save_checkpoint = Path(self._scratch.name) / "checkpoint"
            if save_checkpoint is not None:
                artifacts.save_checkpoint(
                    self.service.framework, save_checkpoint
                )
                checkpoint = save_checkpoint
                if self.service.artifact is None:
                    # A startup-fit adopts the artifact just written so
                    # /healthz reports its schema version from the start.
                    self.service.artifact = artifacts.load_artifact(
                        checkpoint
                    )
            self.checkpoint_dir = (
                str(checkpoint) if checkpoint is not None else None
            )
            primary = self.service.framework.estimate_batch
            if workers > 1:
                self.pool = SupervisedPool(
                    self.snapshot_dir,
                    self.checkpoint_dir,
                    workers,
                    fault_spec=fault_spec,
                )
                primary = self.pool.estimate_batch
                fault_spec = None  # the workers inject their own
            self.backend = ResilientBackend(
                primary,
                fallback=IndependenceEstimator(
                    self.service.store
                ).estimate_batch,
                faults=fault_spec,
            )
            self.scheduler = BatchScheduler(self.backend)
            artifact = self.service.artifact
            self.runtime = ServingRuntime(
                self.service,
                self.scheduler,
                self.backend,
                pool=self.pool,
                admission=(
                    artifact.shapes
                    if artifact is not None
                    else ShapeManifest.from_framework(
                        self.service.framework
                    )
                ),
                artifact=artifact,
                checkpoint_dir=self.checkpoint_dir,
            )
            self.server = make_server(
                self.service,
                self.scheduler,
                host=host,
                port=port,
                runtime=self.runtime,
            )
        except BaseException:
            self.close()
            raise
        self.host, self.port = self.server.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"

    def start(self) -> "ServingApp":
        """Serve on a background thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` is called
        from another one."""
        with self._close_lock:
            if self._drained is not None:
                return  # closed before serving began
            self._serving = True
        self.server.serve_forever()

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = HTTPConnection(self.host, self.port, timeout=2.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.05)
            finally:
                conn.close()
        raise TimeoutError("server did not become healthy in time")

    def close(self) -> bool:
        """The one teardown order: stop accepting (new requests on live
        keep-alive connections get 503), let every accepted request
        write its answer, then close scheduler and pool, join the
        serving thread and remove the scratch checkpoint.

        Idempotent, and safe to call from another thread while
        :meth:`serve_forever` runs — a second caller blocks until the
        first is done.  Returns whether the drain completed in time.
        """
        with self._close_lock:
            if self._drained is not None:
                return self._drained
            drained = True
            if self.server is not None:
                self.server.begin_drain()
                if self._serving:
                    # shutdown() waits for a serve_forever() loop to
                    # exit and would wait forever for one never begun.
                    self.server.shutdown()
                self.server.server_close()
                drained = self.server.wait_inflight_drained()
            if self.scheduler is not None:
                self.scheduler.close()
            if self.pool is not None:
                self.pool.close()
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            if self._scratch is not None:
                self._scratch.cleanup()
            self._drained = drained
            return drained

