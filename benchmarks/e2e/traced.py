"""The traced pass: the serving stack assembled in-process from the
program's public classes, with a span recorded at every layer boundary.

End-to-end numbers never come from here — they are measured with
tracing off against ``python -m repro serve`` as a subprocess.  This
pass replays the same inputs once against the same stack built the way
``cli.cmd_serve`` builds it, so the benchmark's wrappers can sit on the
bound callables between the layers.  Nothing under ``src/`` changes:
instance attributes shadow the methods, and the few module-level
functions that have no instance to hang on are patched for the length
of the pass and restored.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Dict, List

from spans import Recorder, client_span_id, clock

#: MADESweep methods the particle sweep calls -> span name
SWEEP_CALLS = {
    "assign": "nn.masked.assign",
    "head_lse_pick": "nn.masked.head_lse",
    "head_gumbel_argmax": "nn.masked.head_gumbel",
    "head_categorical_sample": "nn.masked.head_sample",
}


class Patches:
    """Module/class attributes replaced for the pass, then restored."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def trace(self, rec: Recorder, target, attr: str, name: str) -> None:
        """Replace ``target.attr`` with its traced form."""
        original = getattr(target, attr)
        self._undo.append((target, attr, original))
        setattr(target, attr, rec.wrap(original, name))

    def restore(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def trace_framework(framework, rec: Recorder, counts: Dict[str, int]) -> None:
    """Spans on ``LMKG.estimate_batch`` and on every model under it."""
    from repro.core.lmkg_u import LMKGU

    rec.wrap_attr(framework, "estimate_batch", "core.framework")
    for model in framework.models.values():
        if isinstance(model, LMKGU):
            rec.wrap_attr(model, "estimate_batch", "core.lmkgu")
            _trace_sweeps(model.model, rec, counts)
        else:
            rec.wrap_attr(model, "estimate_batch", "core.lmkgs")
            rec.wrap_attr(model, "featurize", "core.lmkgs.featurize")


def _trace_sweeps(made, rec: Recorder, counts: Dict[str, int]) -> None:
    begin = made.begin_sweep

    def counted(fn, name):
        def call(position, rows, *args, **kwargs):
            counts["head_rows"] = counts.get("head_rows", 0) + len(rows)
            with rec.span(name):
                return fn(position, rows, *args, **kwargs)
        return call

    def begin_sweep(ids):
        with rec.span("nn.masked.begin_sweep"):
            sweep = begin(ids)
        for attr, name in SWEEP_CALLS.items():
            fn = getattr(sweep, attr)
            setattr(
                sweep, attr,
                rec.wrap(fn, name) if attr == "assign" else counted(fn, name),
            )
        return sweep

    made.begin_sweep = begin_sweep


class TracedServer:
    """``repro serve`` rebuilt in-process with spans between the layers."""

    def __init__(self, snapshot: Path, checkpoint: Path, workers: int,
                 rec: Recorder) -> None:
        from repro.baselines.independence import IndependenceEstimator
        from repro.maintain.freshness import FreshnessPolicy
        from repro.serve import (
            BatchScheduler,
            CircuitBreaker,
            EstimatorService,
            ResilientBackend,
            ServingRuntime,
            ShapeManifest,
            SupervisedPool,
            make_server,
        )
        import repro.serve.service as service_module

        self.rec = rec
        self.patches = Patches()
        self.counts: Dict[str, int] = {}
        self.batch_widths: List[int] = []
        self.reload_s: List[float] = []
        self._owner_of: Dict[int, object] = {}
        self._batches = itertools.count(1)

        service = EstimatorService.from_snapshot(snapshot, checkpoint)
        self.pool = None
        if workers > 1:
            self.pool = SupervisedPool(snapshot, checkpoint, workers)
            rec.wrap_attr(self.pool, "estimate_batch", "serve.pool.roundtrip")
            primary = self.pool.estimate_batch
        else:
            trace_framework(service.framework, rec, self.counts)
            primary = service.framework.estimate_batch
        self.backend = ResilientBackend(
            primary,
            fallback=IndependenceEstimator(service.store).estimate_batch,
            breaker=CircuitBreaker(),
        )
        self.scheduler = BatchScheduler(self._traced_backend)
        self.runtime = ServingRuntime(
            service, self.scheduler, self.backend, pool=self.pool,
            admission=service.artifact.shapes, artifact=service.artifact,
            checkpoint_dir=str(checkpoint),
            freshness_policy=FreshnessPolicy(),
        )
        # Layer boundaries on the handler thread.
        rec.wrap_attr(service, "parse_queries", "serve.service.parse")
        self.patches.trace(
            rec, service_module, "parse_sparql", "rdf.parser.parse"
        )
        self.patches.trace(
            rec, ShapeManifest, "admit_all", "serve.admission.admit"
        )
        submit = self.scheduler.submit_with_meta

        def submit_with_meta(queries, timeout=None):
            for query in queries:
                self._owner_of[id(query)] = rec.owner
            try:
                with rec.span("serve.scheduler.submit"):
                    return submit(queries, timeout)
            finally:
                for query in queries:
                    self._owner_of.pop(id(query), None)

        self.scheduler.submit_with_meta = submit_with_meta
        reload = self.runtime.reload

        def traced_reload(*args, **kwargs):
            begun = clock()
            try:
                return reload(*args, **kwargs)
            finally:
                self.reload_s.append(clock() - begun)

        self.runtime.reload = traced_reload

        self.server = make_server(
            service, self.scheduler, port=0, runtime=self.runtime
        )
        self.server.RequestHandlerClass = self._traced_handler(
            self.server.RequestHandlerClass
        )
        self.host, self.port = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="bench-traced-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _traced_backend(self, queries):
        """The scheduler thread's call into the backend: one batch."""
        rec = self.rec
        batch = f"b{next(self._batches)}"
        for owner in {self._owner_of.get(id(q)) for q in queries}:
            if owner is not None:
                rec.link(owner, batch)
        self.batch_widths.append(len(queries))
        rec.owner = batch
        try:
            with rec.span("serve.backend"):
                return self.backend(queries)
        finally:
            rec.owner = None

    def _traced_handler(self, base):
        rec = self.rec

        class TracedHandler(base):
            def parse_request(self):
                begun = clock()
                ok = super().parse_request()
                ended = clock()
                request_id = self.headers.get("X-Request-Id") if ok else None
                self.bench_request = (
                    int(request_id) if request_id is not None else None
                )
                if self.bench_request is not None:
                    rec.add(
                        "serve.http.parse_request", begun, ended,
                        owner=self.bench_request,
                        parent=client_span_id(self.bench_request),
                    )
                return ok

            def do_POST(self):  # noqa: N802 — BaseHTTPRequestHandler API
                rec.serve_request(self.bench_request)
                try:
                    with rec.span("serve.http.do_POST"):
                        super().do_POST()
                finally:
                    rec.owner = None

        return TracedHandler

    def stats(self) -> dict:
        return self.scheduler.stats()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.scheduler.close()
        if self.pool is not None:
            self.pool.close()
        self._thread.join(timeout=10.0)
        self.patches.restore()


def pool_message_bytes(queries, estimates) -> int:
    """Bytes one chunk costs on the pool's pipes, both directions,
    pickled the way ``multiprocessing.Connection.send`` pickles."""
    from multiprocessing.reduction import ForkingPickler

    out = bytes(ForkingPickler.dumps(("estimate", 0, list(queries))))
    back = bytes(ForkingPickler.dumps((0, list(map(float, estimates)), None)))
    return len(out) + len(back)


def replay_in_process(framework, requests: List[list], workers: int,
                      rec: Recorder, counts: Dict[str, int]) -> dict:
    """Answer *requests* in this process, chunked the way the pool
    chunks them, so the pool's round trip can be set against the bare
    estimate of the same chunks and the sweep's own split is visible."""
    trace_framework(framework, rec, counts)
    slowest_chunk_s, pickle_bytes, queries_seen = [], 0, 0
    for r, queries in enumerate(requests):
        size = max(1, -(-len(queries) // workers))
        chunk_s = []
        rec.owner = f"replay{r}"
        for lo in range(0, len(queries), size):
            chunk = queries[lo:lo + size]
            begun = clock()
            values = framework.estimate_batch(chunk)
            chunk_s.append(clock() - begun)
            pickle_bytes += pool_message_bytes(chunk, values)
        rec.owner = None
        slowest_chunk_s.append(max(chunk_s))
        queries_seen += len(queries)
    return {
        "slowest_chunk_s": slowest_chunk_s,
        "pickle_bytes_per_query": pickle_bytes / max(queries_seen, 1),
        "queries": queries_seen,
    }


class TracedMaintenance:
    """One maintenance cycle in-process, stage by stage."""

    STAGES = {
        "relabel_records": "maintain.relabel",
        "load_checkpoint": "maintain.load_checkpoint",
        "finetune_models": "maintain.finetune",
        "save_checkpoint": "maintain.publish",
        "save_workload": "maintain.publish",
        "write_watermark": "maintain.publish",
    }

    def __init__(self, rec: Recorder, state_dir: Path, train, seed: int,
                 reload_url: str) -> None:
        import repro.maintain.runner as runner_module

        self.rec = rec
        self.state_dir = state_dir
        self.train = train
        self.seed = seed
        self.reload_url = reload_url
        self.patches = Patches()
        for attr, name in self.STAGES.items():
            self.patches.trace(rec, runner_module, attr, name)
        self._cycles = itertools.count(1)

    def __call__(self, live_snapshot: Path) -> dict:
        from repro.maintain import MaintenanceRunner
        from repro.rdf.store import TripleStore

        rec = self.rec
        rec.owner = f"cycle{next(self._cycles)}"
        try:
            with rec.span("maintain.cycle"):
                with rec.span("rdf.snapshot.load"):
                    store = TripleStore.load_snapshot(live_snapshot)
                rec.wrap_attr(store, "save_snapshot", "maintain.publish")
                runner = MaintenanceRunner(
                    store, self.state_dir, shapes=self.train.shapes,
                    queries_per_shape=self.train.queries_per_shape,
                    epochs=self.train.epochs,
                    hidden_sizes=self.train.hidden, seed=self.seed,
                )
                rec.wrap_attr(runner, "plan", "maintain.plan")
                return runner.run(reload_url=self.reload_url).to_dict()
        finally:
            rec.owner = None

    def close(self) -> None:
        self.patches.restore()
