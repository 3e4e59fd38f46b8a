"""Worker supervision, graceful degradation, and zero-downtime reload.

Three fault-tolerance layers for ``repro serve``, composable and each
testable alone:

- :class:`SupervisedPool` — the multi-worker estimation pool rebuilt for
  failure: explicit worker processes over duplex pipes (not
  ``multiprocessing.Pool``, which strands in-flight tasks when a worker
  dies), a **per-request timeout** that catches hung workers, dead/hung
  workers **killed and restarted with exponential backoff under a
  restart budget**, and the stranded chunk **retried on sibling
  workers** — so a worker crash under load yields zero failed client
  requests.  Each worker is a fresh interpreter started by
  ``subprocess`` (``python -m repro.serve.worker``) that inherits one
  end of a socketpair and imports the estimation path only; passing
  that end through ``pass_fds`` makes the pool POSIX-only.  There is
  one worker set for the pool's life, and one load path: a worker is
  told to load a (snapshot, checkpoint) pair beside the one it serves,
  then to flip to it — at start-up, after a restart, and for a
  checkpoint swap, which loads the new pair into the live workers and
  flips them all between batches.  Every decision about a worker slot
  — its phase, restarts, backoff, the restart budget, which pair it
  must load, the generation — is a transition of the pure
  :class:`~repro.serve.lifecycle.Lifecycle` record the pool subclasses;
  the pool itself only spawns, loads, flips, sends, kills and reaps,
  and records what happened through the record under one lock.
- :class:`CircuitBreaker` + :class:`ResilientBackend` — graceful
  degradation: after ``failure_threshold`` consecutive model-path
  failures the breaker opens and traffic routes to a cheap
  always-available fallback (the independence baseline), tagged
  ``degraded: true``; the primary is re-probed on a half-open schedule
  and the breaker closes again on the first success.  Infrastructure
  failures (the whole pool down) fall back immediately — a dead model
  path must read as degraded 200s, not 500s.
- :class:`ServingRuntime` — the orchestrator the HTTP admin surface
  drives: ``reload()`` gate-checks the new checkpoint artifact
  (:mod:`repro.serve.artifacts`), loads it, and atomically swaps it in
  while in-flight batches drain against the old framework (new arrivals
  queue behind the scheduler as usual).  The swapped-in framework
  carries fresh parameter version counters, so the fused float32
  inference caches, which are keyed on those counters, rebuild on
  first use — there is no way to serve a stale cache across a
  reload.  Every response carries the checkpoint generation that
  computed it, and ``/healthz`` reports generation, schema version,
  per-worker liveness/restarts, and breaker state.

Chaos-testability is a design input: :class:`FaultInjector` hooks sit
in the worker request loop and the in-process backend, so the test
suite can kill/hang/poison deterministically and assert the guarantees
above instead of trusting them.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.framework import EstimationError
from repro.rdf.parallel import available_cpus
from repro.rdf.pattern import QueryPattern
from repro.serve.admission import ShapeManifest
from repro.serve.artifacts import CheckpointArtifact, load_checkpoint
from repro.serve.faults import FaultInjector, FaultSpec
from repro.serve.lifecycle import BUSY, DEAD, FAILED, READY, Lifecycle, Slot


class SupervisorError(RuntimeError):
    """The supervised pool cannot serve (startup/restart failure)."""


class ServingWorkerError(RuntimeError):
    """An estimation worker failed; carries the worker traceback.

    An infrastructure error: the degradation layer falls back on it
    immediately.
    """


class NoWorkersError(SupervisorError):
    """Every worker is dead and the restart budget is exhausted."""


class ReloadError(RuntimeError):
    """A hot-reload request cannot even be attempted (no checkpoint)."""


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

#: the directory that holds this ``repro`` package.  A worker is a fresh
#: interpreter, so it is told where the parent found ``repro`` — a
#: checkout's ``src`` put on ``sys.path`` by hand, or site-packages.
_PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: the BLAS thread-count variables a worker is started with.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _worker_env(workers: int) -> Dict[str, str]:
    """The environment of a worker of a *workers*-worker pool: this
    process's, with each unset :data:`BLAS_THREAD_VARS` set to the cores
    one worker may use, and :data:`_PACKAGE_ROOT` first on
    ``PYTHONPATH``.

    BLAS sizes its thread pool once, from the environment, when numpy
    loads: N workers each threading over every core oversubscribe the
    machine N times.  A value already set in this process wins.
    """
    env = dict(os.environ)
    budget = str(max(1, available_cpus() // workers))
    for name in BLAS_THREAD_VARS:
        env.setdefault(name, budget)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        _PACKAGE_ROOT + os.pathsep + path if path else _PACKAGE_ROOT
    )
    return env


class _Worker(Slot):
    """One supervised worker slot: its process and pipe, the chunk it
    is answering, and its :class:`~repro.serve.lifecycle.Slot` fields."""

    def __init__(self, worker_id: int) -> None:
        super().__init__()
        self.id = worker_id
        self.process = None
        self.conn = None
        self.deadline = math.inf
        self.task = None

    def is_alive(self) -> bool:
        """Whether the slot has a process that has not exited."""
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """Close the pipe, SIGKILL the process and reap it."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.is_alive():
            self.process.kill()
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.process.wait(timeout=5.0)
        self.process = None


class SupervisedPool(Lifecycle):
    """N supervised estimation workers over one shared snapshot.

    The drop-in ``estimate_batch`` backend for the scheduler, built to
    keep answering through worker crashes, hangs, and checkpoint
    swaps.  Every slot phase change, restart, backoff and pair check is
    a :class:`~repro.serve.lifecycle.Lifecycle` transition, recorded
    under ``_state_cv``; this class does the I/O around them.

    Args:
        snapshot_dir: read-only memory-mapped snapshot every worker
            attaches to.
        checkpoint_dir: ``LMKG.save`` directory every worker loads.
        workers: worker slot count (>= 1).
        request_timeout: seconds a worker may spend on one chunk before
            it is declared hung, killed, and its chunk retried on a
            sibling.
        restart_budget: total worker restarts allowed over the pool's
            lifetime; beyond it a slot is permanently failed (and with
            every slot failed, :class:`NoWorkersError` surfaces to the
            caller — typically into the circuit breaker).
        backoff_base: restart delay is ``min(backoff_base *
            2**(consecutive_failures - 1), BACKOFF_MAX_S)`` per slot, so
            a crash-looping worker does not spin the supervisor.
        fault_spec: optional :class:`FaultSpec` shipped to every worker
            (chaos testing).

    Each worker is started with :data:`BLAS_THREAD_VARS` set to
    ``available_cpus() // workers`` (at least 1) unless this process
    already sets them; this process's environment is never written.
    """

    #: a chunk stranded by worker deaths is retried at most this many
    #: times before the batch fails (backstop against a fault plan that
    #: kills every worker on every request).
    MAX_CHUNK_RETRIES = 16

    #: the supervision policy every server runs with (no flag overrides
    #: it).
    REQUEST_TIMEOUT = 30.0
    RESTART_BUDGET = 16
    #: how long a worker may take to load a (snapshot, checkpoint) pair.
    STARTUP_TIMEOUT_S = 120.0

    def __init__(
        self,
        snapshot_dir: Union[str, Path],
        checkpoint_dir: Union[str, Path],
        workers: int,
        request_timeout: float = REQUEST_TIMEOUT,
        restart_budget: int = RESTART_BUDGET,
        backoff_base: float = 0.2,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        super().__init__(
            [_Worker(i) for i in range(workers)],
            (str(snapshot_dir), str(checkpoint_dir)),
            restart_budget,
            backoff_base,
        )
        self.workers = workers
        self.request_timeout = request_timeout
        self.fault_spec = fault_spec
        #: serializes estimate_batch callers and reload's load and flip.
        #: Re-entrant so whoever labels answers with a generation can
        #: hold it from reading the label to the end of the dispatch
        #: (:meth:`ResilientBackend.serialize_with`).
        self.dispatch_lock = threading.RLock()
        #: guards the lifecycle record; supervisor thread waits on it.
        self._state_cv = threading.Condition()
        self._chunk_retries = 0
        try:
            self._start(self._workers)
        except BaseException:
            for worker in self._workers:
                worker.kill()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise,
            name="repro-pool-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Worker lifecycle I/O
    # ------------------------------------------------------------------

    def _spawn_worker(self, worker: _Worker) -> None:
        """Start *worker*'s process; it holds no pair until
        :meth:`_load` and a flip give it one."""
        # A fresh interpreter, not fork: restarts create workers from
        # the supervisor thread while scheduler/HTTP threads are live,
        # and a fork taken then can inherit held locks (import lock,
        # BLAS internals) and deadlock inside the checkpoint load — as
        # well as inheriting the listening socket and sibling pipe fds.
        # ``python -m repro.serve.worker`` starts from a clean
        # interpreter that holds only its own pipe end (``pass_fds``,
        # hence POSIX only) and imports the estimation path only; no
        # ``multiprocessing`` start method, and so no resource tracker,
        # is involved.
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        faults = self.fault_spec.to_dict() if self.fault_spec else {}
        with child_conn:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.serve.worker",
                    str(child_conn.fileno()),
                    json.dumps(faults),
                ],
                stdin=subprocess.DEVNULL,
                pass_fds=(child_conn.fileno(),),
                env=_worker_env(self.workers),
            )
        worker.process = process
        worker.conn = parent_conn

    def _load(
        self, workers: List[_Worker], snapshot_dir: str, checkpoint_dir: str
    ) -> None:
        """Have every one of *workers* load one (snapshot, checkpoint)
        pair beside the pair it serves, in parallel; raises
        :class:`SupervisorError` if any of them did not load it.

        A worker that died, or did not reply within
        :data:`STARTUP_TIMEOUT_S`, is killed here (a late reply would
        put its pipe out of step); one that replied with a load error
        keeps serving its old pair.  Every reply is read before the
        first failure is raised.
        """
        for worker in workers:
            with contextlib.suppress(OSError):  # the recv below says why
                worker.conn.send(("load", snapshot_dir, checkpoint_dir))
        deadline = time.monotonic() + self.STARTUP_TIMEOUT_S
        failures = []
        for worker in workers:
            try:
                if not worker.conn.poll(max(0.0, deadline - time.monotonic())):
                    raise TimeoutError("worker did not load in time")
                reply = worker.conn.recv()
            except (EOFError, OSError) as exc:
                worker.kill()
                reply = ("died", str(exc) or "worker died while loading")
            if reply[0] != "loaded":
                failures.append(
                    f"serving worker {worker.id} failed to load "
                    f"{checkpoint_dir}:\n{reply[1]}"
                )
        if failures:
            raise SupervisorError(failures[0])

    def _start(self, workers: List[_Worker]) -> None:
        """Start *workers*' processes, then load a pair into them and
        flip to it until :meth:`started` finds them on the pool's pair
        and marks them ready; raises if any of them fails."""
        for worker in workers:
            self._spawn_worker(worker)
        pair = None
        while True:
            with self._state_cv:
                pair = self.started(workers, pair)
                self._state_cv.notify_all()
            if pair is None:
                return
            self._load(workers, *pair)
            for worker in workers:
                worker.conn.send(("flip",))

    def _kill(
        self, worker: _Worker, reason: str, timed_out: bool = False
    ) -> None:
        """Kill *worker* and record its death (``_state_cv`` held)."""
        worker.kill()
        self.died(worker, time.monotonic(), reason, timed_out)
        self._state_cv.notify_all()

    # ------------------------------------------------------------------
    # Supervision (restart thread)
    # ------------------------------------------------------------------

    def _supervise(self) -> None:
        """Restart dead workers as their backoff deadlines arrive."""
        while True:
            with self._state_cv:
                self._state_cv.wait(0.05)
                if self.closed:
                    return
                # Liveness-check idle workers: a worker killed between
                # requests would otherwise stay "ready" until the next
                # batch tripped over its corpse.
                for worker in self._workers:
                    if worker.state == READY and not worker.is_alive():
                        self._kill(worker, "worker process died while idle")
                due = self.tick(time.monotonic())
            for worker in due:
                try:
                    self._start([worker])
                except BaseException:
                    with self._state_cv:
                        self._kill(worker, traceback.format_exc())

    # ------------------------------------------------------------------
    # Estimation (dispatch loop)
    # ------------------------------------------------------------------

    def estimate_batch(
        self, queries: Sequence[QueryPattern]
    ) -> np.ndarray:
        """Estimates in input order, surviving worker deaths mid-batch.

        Chunks are scattered over ready workers; a chunk stranded by a
        crash or timeout re-queues onto a sibling (bounded by
        :data:`MAX_CHUNK_RETRIES`).  Raises :class:`NoWorkersError` only
        when every slot is permanently failed — the layer above routes
        that to the fallback estimator.
        """
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        with self.dispatch_lock:
            return self._dispatch(queries)

    def _dispatch(self, queries: List[QueryPattern]) -> np.ndarray:
        workers = self._workers
        chunk_size = max(1, math.ceil(len(queries) / len(workers)))
        tasks: Deque[Tuple[int, List[QueryPattern], int]] = deque(
            (offset, queries[offset:offset + chunk_size], 0)
            for offset in range(0, len(queries), chunk_size)
        )
        values = np.empty(len(queries), dtype=np.float64)
        outstanding: Dict[int, _Worker] = {}  # offset -> worker
        pending_error: Optional[BaseException] = None

        def requeue(
            worker: _Worker, reason: str, timed_out: bool = False
        ) -> None:
            nonlocal pending_error
            offset, chunk, retries = worker.task
            outstanding.pop(offset, None)
            self._kill(worker, reason, timed_out)
            self._chunk_retries += 1
            if retries + 1 > self.MAX_CHUNK_RETRIES:
                pending_error = pending_error or SupervisorError(
                    f"chunk at offset {offset} failed "
                    f"{retries + 1} times; last worker error: {reason}"
                )
            elif pending_error is None:
                tasks.append((offset, chunk, retries + 1))

        while tasks or outstanding:
            # Assign queued chunks to ready workers.
            with self._state_cv:
                for worker in workers:
                    if not tasks or pending_error is not None:
                        break
                    if worker.state != READY:
                        continue
                    task = tasks.popleft()
                    worker.task = task
                    worker.deadline = (
                        time.monotonic() + self.request_timeout
                    )
                    self.taken(worker)
                    try:
                        worker.conn.send(
                            ("estimate", task[0], task[1])
                        )
                    except OSError:
                        requeue(worker, "send failed (worker gone)")
                        continue
                    outstanding[task[0]] = worker
                if pending_error is not None and not outstanding:
                    break
                if not outstanding:
                    # Nothing in flight and nothing assignable: either
                    # every slot is permanently failed, or restarts are
                    # pending — wait for the supervisor.
                    if all(w.state == FAILED for w in workers):
                        raise NoWorkersError(
                            "all serving workers are dead and the "
                            f"restart budget ({self.restart_budget}) "
                            "is exhausted"
                        )
                    self._state_cv.wait(0.1)
                    continue
            busy = list(outstanding.values())
            ready_conns = set(
                _conn_wait([w.conn for w in busy], timeout=0.05)
            )
            now = time.monotonic()
            with self._state_cv:
                for worker in busy:
                    if worker.conn in ready_conns:
                        try:
                            offset, chunk_values, error = (
                                worker.conn.recv()
                            )
                        except (EOFError, OSError):
                            requeue(worker, "worker process crashed")
                            continue
                        outstanding.pop(offset, None)
                        self.answered(worker)
                        self._state_cv.notify_all()
                        if error is not None:
                            kind, text = error
                            if pending_error is None:
                                if kind == "estimation":
                                    pending_error = EstimationError(
                                        text
                                    )
                                else:
                                    pending_error = ServingWorkerError(
                                        "estimation worker failed on "
                                        f"chunk at offset {offset}:\n"
                                        f"{text}"
                                    )
                        else:
                            values[
                                offset:offset + len(chunk_values)
                            ] = chunk_values
                    elif worker.deadline < now:
                        requeue(
                            worker,
                            f"request timeout "
                            f"({self.request_timeout:.1f}s) — worker "
                            "hung",
                            timed_out=True,
                        )
                    elif not worker.is_alive():
                        requeue(worker, "worker process died")
        if pending_error is not None:
            raise pending_error
        return values

    # ------------------------------------------------------------------
    # Hot reload (load beside, then flip)
    # ------------------------------------------------------------------

    def reload(
        self,
        checkpoint_dir: Union[str, Path],
        snapshot_dir: Union[str, Path, None] = None,
        on_flip: Optional[Callable[[], None]] = None,
    ) -> int:
        """Swap every worker onto *checkpoint_dir* without a failed read.

        Under the dispatch lock, so no chunk is in flight on any pipe
        (requests queue for the milliseconds a load takes), every ready
        worker is taken busy and loads the new pair beside the one it
        serves.  Once no worker is left ready on the old pair, the pool
        flips: its pair moves, the generation is bumped and every
        loaded worker drops its old pair.  A worker that restarts
        meanwhile comes back on the serving pair and is loaded with the
        others, or, if it comes back after the flip, loads the new pair
        itself.  Any load error or worker death aborts the reload with
        :class:`SupervisorError`: the old pair keeps serving everywhere,
        and a pair that was loaded but not flipped never answers.
        Returns the new worker-set generation.

        *on_flip* runs at the flip, still under the dispatch lock:
        whatever labels answers with a generation must move there,
        because every batch dispatched from then on is computed by the
        new pair.

        *snapshot_dir* additionally re-attaches the workers to a
        different snapshot — the maintenance path, which publishes a
        fresh snapshot with every checkpoint generation because a
        fine-tuned checkpoint only gate-checks against the graph it
        was fine-tuned on.  The pool's (checkpoint, snapshot) pair
        moves at the flip, so a worker restarted before it loads the
        old pair.
        """
        pair = (str(snapshot_dir or self.pair[0]), str(checkpoint_dir))
        # No dispatcher runs, or waits for a ready worker, while this
        # holds the dispatch lock: the busy workers are this reload's.
        with self.dispatch_lock:
            try:
                while True:
                    with self._state_cv:
                        todo = [w for w in self._workers if w.state == READY]
                        self.taken(*todo)
                        if not todo:  # flip under this same lock hold
                            for worker in self.flipped(pair):
                                # A dead worker is found as any other is.
                                with contextlib.suppress(OSError):
                                    worker.conn.send(("flip",))
                            break
                    self._load(todo, *pair)
            except BaseException:
                # Aborted: each worker this reload holds answers on its
                # old pair again, unless _load killed it.
                with self._state_cv:
                    for worker in self._workers:
                        if worker.state == BUSY and worker.process is None:
                            self._kill(worker, "worker died while loading")
                        elif worker.state == BUSY:
                            self.answered(worker)
                raise
            if on_flip is not None:
                on_flip()
            return self.generation

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        with self._state_cv:
            return {
                "workers": [
                    {
                        "id": w.id,
                        "state": w.state,
                        "alive": w.state not in (DEAD, FAILED),
                        "restarts": w.restarts,
                        "last_error": (
                            w.last_error.splitlines()[-1]
                            if w.last_error
                            else None
                        ),
                    }
                    for w in self._workers
                ],
                "worker_set_generation": self.generation,
                "restarts_used": self.restarts_used,
                "restart_budget": self.restart_budget,
                "deaths": self.deaths,
                "timeouts": self.timeouts,
                "chunk_retries": self._chunk_retries,
                "request_timeout_s": self.request_timeout,
            }

    def close(self) -> None:
        with self._state_cv:
            if self.closed:
                return
            self.closed = True
            self._state_cv.notify_all()
        self._supervisor.join(timeout=5.0)
        for worker in self._workers:
            if worker.conn is not None:
                with contextlib.suppress(OSError):
                    worker.conn.send(("stop",))
        for worker in self._workers:
            if worker.process is not None:
                with contextlib.suppress(subprocess.TimeoutExpired):
                    worker.process.wait(timeout=2.0)
            worker.kill()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe schedule.

    CLOSED counts consecutive primary failures; at
    ``failure_threshold`` it OPENs and stays open for
    ``reset_timeout_s``, after which the next request becomes the
    HALF_OPEN probe: its success closes the breaker, its failure
    re-opens it for another full window.  ``clock`` is injectable so
    tests drive the schedule deterministically.
    """

    #: the breaker policy every server runs with (no flag overrides it).
    FAILURE_THRESHOLD = 3
    RESET_TIMEOUT_S = 5.0

    def __init__(
        self,
        failure_threshold: int = FAILURE_THRESHOLD,
        reset_timeout_s: float = RESET_TIMEOUT_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def is_open(self) -> bool:
        return self.state != BREAKER_CLOSED

    def route(self) -> str:
        """``"primary"`` or ``"fallback"`` for the next request."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return "primary"
            if (
                self._state == BREAKER_OPEN
                and not self._probe_in_flight
                and self._clock() - self._opened_at
                >= self.reset_timeout_s
            ):
                self._state = BREAKER_HALF_OPEN
                self._probe_in_flight = True
                return "primary"  # the half-open probe
            return "fallback"

    def record_success(self) -> None:
        with self._lock:
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            was_probe = self._probe_in_flight
            self._probe_in_flight = False
            if (
                was_probe
                or self._state == BREAKER_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                if self._state != BREAKER_OPEN:
                    self._opens += 1
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()

    def reset(self) -> None:
        self.record_success()

    def state_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout_s,
                "opens": self._opens,
            }


#: failure types meaning "the primary serving path itself is down" —
#: fall back immediately instead of burning requests on 500s while the
#: breaker counts to its threshold.
_INFRASTRUCTURE_ERRORS = (SupervisorError, ServingWorkerError)


class ResilientBackend:
    """The scheduler-facing backend with degradation and generations.

    Wraps a primary ``estimate_batch`` callable (a framework or a
    :class:`SupervisedPool`) and a fallback.  Calls return
    ``(values, meta)`` where ``meta`` records the checkpoint
    ``generation`` that computed the batch, whether it was ``degraded``
    (fallback-served), and which ``backend`` ran — captured atomically
    with the callable, so hot-reload can never mislabel an in-flight
    batch.

    Failure policy:

    - :class:`~repro.core.framework.EstimationError` passes through
      untouched (it is a per-query 422, not a model-path failure);
    - infrastructure errors (pool dead) fall back immediately;
    - other primary failures propagate while the breaker is closed —
      the scheduler's per-request isolation then contains poison
      queries — and each one feeds the breaker; once it opens, all
      traffic is served by the fallback (``degraded: true``) until a
      half-open probe succeeds.
    """

    def __init__(
        self,
        primary: Callable[[List], np.ndarray],
        fallback: Callable[[List], np.ndarray],
        breaker: Optional[CircuitBreaker] = None,
        faults: Optional[FaultSpec] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._primary = primary
        self._fallback = fallback
        self.breaker = breaker or CircuitBreaker()
        self._injector = (
            FaultInjector(faults) if faults and faults.enabled else None
        )
        self._generation = 1
        self._call_lock = contextlib.nullcontext()
        self._primary_batches = 0
        self._degraded_batches = 0

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    # -- call path ------------------------------------------------------

    def serialize_with(self, lock) -> None:
        """Hold *lock* from reading the label to the end of each call.

        For a primary that swaps what is behind it under a lock of its
        own (:attr:`SupervisedPool.dispatch_lock`): without this a flip
        can land between reading the generation and dispatching, and
        that batch is computed by generation g + 1 but labelled g.
        """
        self._call_lock = lock

    def __call__(
        self, queries: Sequence[QueryPattern]
    ) -> Tuple[np.ndarray, dict]:
        with self._call_lock:
            return self._call(queries)

    def _call(
        self, queries: Sequence[QueryPattern]
    ) -> Tuple[np.ndarray, dict]:
        with self._lock:
            fn = self._primary
            generation = self._generation
        if self.breaker.route() != "primary":
            return self._run_fallback(queries, generation, cause=None)
        try:
            if self._injector is not None:
                self._injector.on_request(queries)
            values = fn(queries)
        except EstimationError:
            raise
        except Exception as exc:  # noqa: BLE001 — classified below
            self.breaker.record_failure()
            if (
                isinstance(exc, _INFRASTRUCTURE_ERRORS)
                or self.breaker.is_open
            ):
                return self._run_fallback(
                    queries, generation, cause=exc
                )
            raise
        self.breaker.record_success()
        with self._lock:
            self._primary_batches += 1
        return values, {
            "generation": generation,
            "degraded": False,
            "backend": "primary",
        }

    def _run_fallback(
        self,
        queries: Sequence[QueryPattern],
        generation: int,
        cause: Optional[BaseException],
    ) -> Tuple[np.ndarray, dict]:
        try:
            values = self._fallback(queries)
        except Exception:
            if cause is not None:
                raise cause
            raise
        with self._lock:
            self._degraded_batches += 1
        return values, {
            "generation": generation,
            "degraded": True,
            "backend": "fallback",
        }

    # -- reload support -------------------------------------------------

    def swap_primary(self, fn: Callable) -> Callable:
        """Atomically install a new primary; bumps the generation and
        closes the breaker (a fresh checkpoint earns a fresh chance).
        Returns the previous primary."""
        with self._lock:
            old = self._primary
            self._primary = fn
            self._generation += 1
        self.breaker.reset()
        return old

    def stats(self) -> dict:
        with self._lock:
            snapshot = {
                "generation": self._generation,
                "primary_batches": self._primary_batches,
                "degraded_batches": self._degraded_batches,
                # A fallback always exists; the key keeps /healthz's shape.
                "fallback_available": True,
            }
        snapshot["circuit_breaker"] = self.breaker.state_dict()
        return snapshot


# ----------------------------------------------------------------------
# Runtime orchestrator (what /admin/reload and /healthz talk to)
# ----------------------------------------------------------------------

class ServingRuntime:
    """Ties service, scheduler, backend, pool, and artifacts together.

    The HTTP layer delegates here for everything beyond a plain
    estimate: hot-reload, admission, and fault-tolerance introspection.
    """

    def __init__(
        self,
        service,
        scheduler,
        backend: ResilientBackend,
        *,
        admission: ShapeManifest,
        pool: Optional[SupervisedPool] = None,
        artifact: Optional[CheckpointArtifact] = None,
        checkpoint_dir: Union[str, Path, None] = None,
        freshness_policy=None,
    ) -> None:
        self.service = service
        self.scheduler = scheduler
        self.backend = backend
        self.pool = pool
        if pool is not None:
            # reload() flips pool and backend together under this lock.
            backend.serialize_with(pool.dispatch_lock)
        self.artifact = artifact
        #: the trained-shape manifest requests are admitted against.
        self.admission = admission
        self.checkpoint_dir = (
            str(checkpoint_dir) if checkpoint_dir is not None else None
        )
        #: declared max-staleness thresholds for the /healthz freshness
        #: block (a :class:`repro.maintain.freshness.FreshnessPolicy`;
        #: None uses that module's defaults).
        self.freshness_policy = freshness_policy
        self._reload_lock = threading.Lock()
        self.reloads = 0

    @property
    def generation(self) -> int:
        return self.backend.generation

    # -- hot reload -----------------------------------------------------

    def reload(
        self,
        checkpoint_dir: Union[str, Path, None] = None,
        snapshot_dir: Union[str, Path, None] = None,
    ) -> dict:
        """Atomically swap the serving checkpoint; returns a summary.

        Gate order: artifact schema/checksum check and a full parent
        load first (typed :class:`~repro.serve.artifacts.ArtifactError`
        / :class:`~repro.core.framework.CheckpointError` rejection with
        the old framework untouched), then the pool/backend swap.
        In-flight batches drain against the old framework; requests
        submitted after this method returns are answered by the new
        generation.

        *snapshot_dir* swaps the served graph along with the model —
        the maintenance hand-off, where each published generation pairs
        a fine-tuned checkpoint with the snapshot it was tuned against.
        The new snapshot is verified and the checkpoint gate-checked
        against it before anything is swapped; on any failure the old
        snapshot, framework, and worker pair keep serving.  The
        degradation fallback keeps its construction-time store — it
        stays available mid-swap, at worst one generation stale until
        the process restarts or the caller rebuilds it.
        """
        with self._reload_lock:
            path = (
                str(checkpoint_dir)
                if checkpoint_dir is not None
                else self.checkpoint_dir
            )
            if path is None:
                raise ReloadError(
                    "no checkpoint directory to reload from; start "
                    "the server with --checkpoint/--save-checkpoint "
                    'or POST {"checkpoint": "<dir>"}'
                )
            if snapshot_dir is not None:
                from repro.rdf.columnar import SnapshotError
                from repro.rdf.store import TripleStore

                store = TripleStore.load_snapshot(str(snapshot_dir))
                if store.dictionary is None:
                    raise SnapshotError(
                        f"snapshot at {snapshot_dir} has no term "
                        "dictionary; queries could not be parsed"
                    )
            else:
                store = self.service.store
            framework, artifact = load_checkpoint(path, store)

            def flip() -> None:
                self.backend.swap_primary(
                    self.pool.estimate_batch
                    if self.pool is not None
                    else framework.estimate_batch
                )
                self.service.store = store
                self.service.framework = framework
                self.artifact = artifact
                self.admission = artifact.shapes
                self.checkpoint_dir = path
                self.reloads += 1

            if self.pool is not None:
                # The pool runs flip() under its dispatch lock, when
                # its workers flip: an answer's generation must name
                # the checkpoint that computed it.
                self.pool.reload(
                    path, snapshot_dir=snapshot_dir, on_flip=flip
                )
            else:
                flip()
            summary = {
                "generation": self.generation,
                "checkpoint": path,
                "schema_version": artifact.schema_version,
            }
            if snapshot_dir is not None:
                summary["snapshot"] = str(snapshot_dir)
            return summary

    # -- introspection --------------------------------------------------

    def freshness(self) -> dict:
        """The dbt-sources-style freshness verdict for ``/healthz``.

        The watermark stamped into the active checkpoint (by
        :mod:`repro.maintain`) is compared against the served store
        under the declared thresholds; a pre-maintenance checkpoint
        falls back to the artifact's store fingerprint (run/generation
        unknown, triple lag still measurable); a startup-fitted server
        has no materialization record at all and reports ``unknown``.
        """
        from repro.maintain.freshness import (
            check_freshness,
            watermark_from_fingerprint,
        )
        from repro.maintain.watermark import (
            WatermarkError,
            read_watermark,
        )

        watermark = None
        if self.checkpoint_dir is not None:
            try:
                watermark = read_watermark(self.checkpoint_dir)
            except WatermarkError:
                watermark = None
        if watermark is None and self.artifact is not None:
            watermark = watermark_from_fingerprint(
                self.artifact.store
            )
        return check_freshness(
            watermark, self.service.store, self.freshness_policy
        ).to_dict()

    def healthz_extras(self) -> dict:
        breaker = self.backend.breaker.state_dict()
        payload = {
            "checkpoint_generation": self.generation,
            "checkpoint_schema_version": (
                self.artifact.schema_version
                if self.artifact is not None
                else None
            ),
            "degraded": breaker["state"] != BREAKER_CLOSED,
            "circuit_breaker": breaker,
            "backend": self.backend.stats(),
            "reloads": self.reloads,
            "freshness": self.freshness(),
            "admitted_shapes": self.admission.to_dict(),
        }
        if self.pool is not None:
            payload["pool"] = self.pool.stats()
        else:
            payload["pool"] = {"mode": "in-process"}
        return payload
