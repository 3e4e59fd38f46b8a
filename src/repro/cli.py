"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``stats``   — Table I-style statistics for a built-in or N-Triples graph,
- ``train``   — train LMKG models for ``--shapes`` and write an
  ``LMKG.save`` checkpoint directory, the one ``estimate``, ``serve
  --checkpoint`` and ``maintain`` read,
- ``estimate``— estimate a SPARQL query with a trained checkpoint,
- ``workload``— generate a labelled query workload as TSV,
- ``label``   — generate a labelled training workload with the
  cardinality labeling split across worker processes that share one
  memory-mapped snapshot (``--workers N``; ``--workers 0`` uses every
  core, ``--snapshot DIR`` attaches to an existing snapshot),
- ``snapshot``— persist a graph as a memory-mapped columnar snapshot
  (``snapshot save``), load/inspect one without per-triple work
  (``snapshot load``; ``--no-verify`` skips the checksum pass), and
  describe one from its manifest alone — format version, row count and
  CRC32 — without attaching a single column (``snapshot info``;
  ``--json`` for machines),
- ``maintain``— incrementally maintain a trained estimator over a
  mutating graph (``maintain run``): diff the live store against the
  last materialization's watermark, relabel only the affected training
  queries, fine-tune only the touched models from the previous
  generation's checkpoint, and publish a new versioned generation
  (checkpoint + snapshot + watermark) under ``--state-dir`` — with
  ``--reload-url`` the new generation is handed to a running server's
  ``/admin/reload`` for a zero-downtime swap.  The first run (or
  ``--full``) materializes everything from scratch; ``--dry-run``
  prints the plan without touching anything; ``maintain status``
  reports the watermark, freshness verdict, and pending delta.  Models
  are grouped by size, fine-tuned for ``DEFAULT_FINETUNE_EPOCHS`` and
  graded by the ``FreshnessPolicy()`` defaults,
- ``serve``   — serve the batched estimation API over HTTP with
  micro-batching across concurrent requests (``POST /estimate``,
  ``GET /healthz``, ``GET /stats``).  Nine flags: ``--snapshot DIR``
  (the store), ``--checkpoint DIR`` (an ``LMKG.save`` checkpoint; else
  a deterministic startup fit of ``--fit-queries`` / ``--fit-epochs``,
  kept with ``--save-checkpoint DIR``), ``--host`` / ``--port``,
  ``--workers N`` (*supervised* worker processes sharing the snapshot
  read-only) and ``--faults`` (deterministic chaos, see
  :mod:`repro.serve.faults`).  Everything else is one fixed policy,
  held by the class that owns it: work-conserving micro-batching
  (no coalescing window) by ``BatchScheduler.MAX_BATCH`` /
  ``MAX_QUEUE``; dead
  or hung workers restarted with backoff and their requests retried on
  siblings under ``SupervisedPool.REQUEST_TIMEOUT`` /
  ``RESTART_BUDGET``; model-path failures degraded onto the
  independence baseline behind a breaker of
  ``CircuitBreaker.FAILURE_THRESHOLD`` / ``RESET_TIMEOUT_S``; uncovered
  query shapes 422'd at parse time; ``/healthz`` freshness graded by
  the ``FreshnessPolicy()`` defaults; no request log.
  ``POST /admin/reload`` or SIGHUP hot-swaps the checkpoint with zero
  downtime.  SIGTERM drains gracefully: new requests get 503,
  in-flight batches flush, then the process exits 0,
- ``replay``  — prove the stack under fire (``repro.replay``):
  ``replay record`` generates a recorded trace (shape mixes,
  Zipf-skewed popularity, Poisson arrivals); ``replay run`` fires it
  **open-loop** at a server — self-hosted in-process (``--snapshot``,
  required for chaos) or external (``--url``) — optionally racing a
  scripted chaos timeline (``at 5s: kill worker; at 12s: maintain``,
  see :mod:`repro.replay.timeline`), grades the outcome against SLOs
  (p50/p99/p99.9, shed rate, achieved vs. offered) and exits nonzero
  on violation; ``replay report`` pretty-prints a saved report.

Examples::

    python -m repro stats --dataset lubm
    python -m repro train --dataset lubm --model lmkg-s \
        --shapes star:2 chain:2 --out /tmp/lubm_ckpt
    python -m repro estimate --dataset lubm --checkpoint /tmp/lubm_ckpt \
        --query 'SELECT ?x WHERE { ?x <ub:advisor> ?y . ?x <ub:takesCourse> ?z . }'
    python -m repro workload --dataset swdf --topology star --size 3 \
        --count 100
    python -m repro label --dataset swdf --topology star --size 3 \
        --count 1000 --workers 4 --out /tmp/train.tsv
    python -m repro snapshot save --dataset lubm --out /tmp/lubm_snap
    python -m repro snapshot load --dir /tmp/lubm_snap
    python -m repro snapshot info --dir /tmp/lubm_snap --json
    python -m repro maintain run --snapshot /tmp/lubm_snap \
        --state-dir /tmp/lubm_maintain --reload-url \
        http://127.0.0.1:8310/admin/reload
    python -m repro maintain status --snapshot /tmp/lubm_snap \
        --state-dir /tmp/lubm_maintain
    python -m repro serve --snapshot /tmp/lubm_snap \
        --checkpoint /tmp/lubm_ckpt --port 8310 --workers 2
    python -m repro replay record --snapshot /tmp/lubm_snap \
        --rate 80 --duration 30 --out /tmp/lubm.trace
    python -m repro replay run --trace /tmp/lubm.trace \
        --snapshot /tmp/lubm_snap --workers 2 \
        --timeline 'at 5s: kill worker; at 10s: mutate 400; at 12s: maintain' \
        --report /tmp/slo.json
    python -m repro replay report /tmp/slo.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.framework import LMKG, CheckpointError, EstimationError
from repro.core.lmkg_s import LMKGSConfig
from repro.core.lmkg_u import LMKGUConfig
from repro.datasets import DATASET_NAMES, load_dataset
from repro.rdf import (
    ParseError,
    compute_stats,
    count_bgp,
    load_ntriples,
    parse_sparql,
)
from repro.rdf.store import TripleStore
from repro.sampling import generate_workload


def _load_store(args) -> TripleStore:
    if args.ntriples:
        return load_ntriples(args.ntriples)
    return load_dataset(args.dataset, scale=args.scale)


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default="lubm",
        help="built-in synthetic dataset",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )
    parser.add_argument(
        "--ntriples",
        help="load this N-Triples file instead of a built-in dataset",
    )


# The topologies each model family trains (``--model``).
_TOPOLOGIES = {"lmkg-s": ("star", "chain", "tree"), "lmkg-u": ("star", "chain")}


def _parse_shapes(
    values: Sequence[str], model: str
) -> List[Tuple[str, int]]:
    """``topology:size`` strings to shapes *model* can train."""
    shapes = []
    for value in values:
        try:
            topology, size = value.split(":")
            size = int(size)
        except ValueError:
            raise SystemExit(
                f"bad shape {value!r}; expected topology:size like star:2"
            )
        if topology not in _TOPOLOGIES[model] or size < 1:
            raise SystemExit(
                f"bad shape {value!r}: {model} trains "
                f"{'/'.join(_TOPOLOGIES[model])} shapes of size >= 1"
            )
        shapes.append((topology, size))
    return shapes


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_stats(args) -> int:
    store = _load_store(args)
    stats = compute_stats(store, args.dataset or "graph")
    print(f"triples:         {stats.num_triples}")
    print(f"entities:        {stats.num_entities}")
    print(f"predicates:      {stats.num_predicates}")
    print(f"max out-degree:  {stats.max_out_degree}")
    print(f"max in-degree:   {stats.max_in_degree}")
    print(f"mean out-degree: {stats.mean_out_degree:.2f}")
    print(f"degree gini:     {stats.degree_gini:.3f}")
    return 0


def cmd_train(args) -> int:
    shapes = _parse_shapes(args.shapes, args.model)
    store = _load_store(args)
    framework = LMKG(
        store,
        model_type=(
            "unsupervised" if args.model == "lmkg-u" else "supervised"
        ),
        lmkgs_config=LMKGSConfig(
            hidden_sizes=tuple(args.hidden),
            epochs=args.epochs,
            seed=args.seed,
        ),
        lmkgu_config=LMKGUConfig(
            hidden_sizes=tuple(args.hidden),
            epochs=args.epochs,
            training_samples=args.queries,
            seed=args.seed,
        ),
        seed=args.seed,
    )
    report = framework.fit(shapes, queries_per_shape=args.queries)
    print(
        f"trained {framework.num_models()} {args.model} model(s) on "
        f"{sum(report.training_records.values())} training examples"
    )
    framework.save(args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    store = _load_store(args)
    if store.dictionary is None:
        raise SystemExit("estimate requires a dictionary-encoded store")
    from repro.serve.artifacts import load_checkpoint

    try:
        query = parse_sparql(args.query, store.dictionary)
    except ParseError as exc:
        raise SystemExit(f"bad query: {exc}")
    try:
        framework, _ = load_checkpoint(args.checkpoint, store)
        estimate = float(framework.estimate_batch([query])[0])
    except (CheckpointError, EstimationError) as exc:
        raise SystemExit(f"estimate failed: {exc}")
    truth = count_bgp(store, query) if args.exact else None
    print(f"estimate: {estimate:.1f}")
    if truth is not None:
        ratio = max(estimate, 1) / max(truth, 1)
        q = max(ratio, 1 / ratio)
        print(f"exact:    {truth}")
        print(f"q-error:  {q:.2f}")
    return 0


def cmd_workload(args) -> int:
    store = _load_store(args)
    workload = generate_workload(
        store, args.topology, args.size, args.count, seed=args.seed
    )
    if args.out:
        from repro.sampling.io import save_workload

        written = save_workload(args.out, workload)
        print(f"{written} queries written to {args.out}")
        return 0
    print("topology\tsize\tcardinality\tquery")
    for record in workload:
        print(
            f"{record.topology}\t{record.size}\t"
            f"{record.cardinality}\t{record.query!r}"
        )
    return 0


def cmd_label(args) -> int:
    from repro.rdf.columnar import SnapshotError

    if args.workers < 0:
        raise SystemExit(
            f"--workers must be >= 0 (0 = one per core), "
            f"got {args.workers}"
        )
    workers = args.workers if args.workers > 0 else None
    if args.snapshot:
        try:
            store = TripleStore.load_snapshot(args.snapshot)
        except SnapshotError as exc:
            raise SystemExit(f"snapshot load failed: {exc}")
        snapshot_dir = args.snapshot
    else:
        store = _load_store(args)
        snapshot_dir = None
    start = time.perf_counter()
    workload = generate_workload(
        store,
        args.topology,
        args.size,
        args.count,
        seed=args.seed,
        workers=workers,
        snapshot_dir=snapshot_dir,
    )
    elapsed = time.perf_counter() - start
    qps = len(workload) / elapsed if elapsed > 0 else float("inf")
    mode = (
        "serial"
        if (workers == 1)
        else f"{workers or 'all-core'} workers, shared snapshot"
    )
    print(
        f"labelled {len(workload)} {args.topology}:{args.size} queries "
        f"in {elapsed:.2f} s ({qps:.1f} q/s, {mode})"
    )
    if args.out:
        from repro.sampling.io import save_workload

        written = save_workload(args.out, workload)
        print(f"{written} queries written to {args.out}")
    return 0


def cmd_snapshot_save(args) -> int:
    store = _load_store(args)
    start = time.perf_counter()
    manifest = store.save_snapshot(args.out)
    elapsed = time.perf_counter() - start
    print(
        f"{len(store)} triples snapshotted to {args.out} "
        f"(single snapshot) in {elapsed * 1000:.1f} ms"
    )
    print(f"manifest: {manifest}")
    return 0


def cmd_snapshot_load(args) -> int:
    from repro.rdf.columnar import SnapshotError

    mmap_mode = None if args.eager else "r"
    start = time.perf_counter()
    try:
        store = TripleStore.load_snapshot(
            args.dir, mmap_mode=mmap_mode, verify=not args.no_verify
        )
    except SnapshotError as exc:
        raise SystemExit(f"snapshot load failed: {exc}")
    elapsed = time.perf_counter() - start
    mode = "eager" if args.eager else "memory-mapped"
    print(f"loaded {args.dir} ({mode}) in {elapsed * 1000:.2f} ms")
    print(f"triples:     {len(store)}")
    print(f"nodes:       {store.num_nodes}")
    print(f"predicates:  {store.num_predicates}")
    print(f"dictionary:  {'yes' if store.dictionary is not None else 'no'}")
    return 0


def cmd_snapshot_info(args) -> int:
    import json

    from repro.rdf.columnar import SnapshotError, read_manifest

    try:
        manifest = read_manifest(args.dir)
    except SnapshotError as exc:
        raise SystemExit(f"snapshot inspection failed: {exc}")
    info = {
        "directory": str(args.dir),
        "format": manifest.get("format"),
        "version": manifest.get("version"),
        "layout": "flat",
        "num_triples": manifest.get("num_triples"),
        "has_dictionary": bool(manifest.get("has_dictionary")),
        "dictionary_checksum": manifest.get("dictionary_checksum"),
        "crc32": manifest.get("checksum"),
    }
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"snapshot:    {args.dir}")
    print(
        f"format:      {info['format']} v{info['version']} "
        f"({info['layout']})"
    )
    print(f"triples:     {info['num_triples']}")
    if info["has_dictionary"]:
        print(
            f"dictionary:  yes (checksum "
            f"{info['dictionary_checksum']})"
        )
    else:
        print("dictionary:  no")
    print(f"crc32:       {info['crc32']}")
    return 0


def _make_maintenance_runner(args):
    from repro.maintain import MaintenanceRunner
    from repro.rdf.columnar import SnapshotError

    if args.snapshot:
        try:
            store = TripleStore.load_snapshot(args.snapshot)
        except SnapshotError as exc:
            raise SystemExit(f"snapshot load failed: {exc}")
    else:
        store = _load_store(args)
    if store.dictionary is None:
        raise SystemExit(
            "maintain requires a dictionary-encoded store"
        )
    return MaintenanceRunner(
        store,
        args.state_dir,
        shapes=_parse_shapes(args.shapes, "lmkg-s"),
        queries_per_shape=args.queries,
        epochs=args.epochs,
        hidden_sizes=tuple(args.hidden),
        seed=args.seed,
    )


def cmd_maintain_run(args) -> int:
    import json

    from repro.maintain import MaintenanceError

    runner = _make_maintenance_runner(args)
    try:
        report = runner.run(
            full=args.full,
            dry_run=args.dry_run,
            reload_url=args.reload_url,
        )
    except MaintenanceError as exc:
        raise SystemExit(f"maintenance run failed: {exc}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    plan = report.plan or {}
    print(
        f"action:      {report.action}"
        + (f" ({plan.get('reason')})" if plan.get("reason") else "")
    )
    print(f"generation:  {report.run}")
    print(f"delta:       {plan.get('num_delta', 0)} triples")
    if report.relabeled:
        relabelled = ", ".join(
            f"{shape}={count}"
            for shape, count in sorted(report.relabeled.items())
        )
        print(f"relabelled:  {relabelled}")
    if report.finetune:
        models = report.finetune.get("models", {})
        tuned = ", ".join(sorted(map(str, models))) or "none"
        print(
            f"fine-tuned:  {tuned} "
            f"({report.finetune.get('epochs')} epoch(s))"
        )
    if report.checkpoint_dir:
        print(f"checkpoint:  {report.checkpoint_dir}")
    if report.snapshot_dir:
        print(f"snapshot:    {report.snapshot_dir}")
    if report.reload_response is not None:
        print(f"reload:      {report.reload_response.get('status')}")
    print(f"elapsed:     {report.seconds:.2f} s")
    return 0


def cmd_maintain_status(args) -> int:
    import json

    runner = _make_maintenance_runner(args)
    status = runner.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    watermark = status["watermark"]
    freshness = status["freshness"]
    plan = status["plan"]
    store_info = status["store"]
    if watermark is None:
        print("watermark:   none (never materialized; run maintain run)")
    else:
        print(
            f"watermark:   generation {watermark['run']} at "
            f"{watermark['num_triples']} triples"
        )
    print(
        f"store:       {store_info['num_triples']} triples, "
        f"{store_info['num_nodes']} nodes, "
        f"{store_info['num_predicates']} predicates"
    )
    print(
        f"freshness:   {freshness['status']} "
        f"(lag {freshness['lag_triples']} triples, "
        f"warn after {freshness['thresholds']['warn_after']}, "
        f"error after {freshness['thresholds']['error_after']})"
    )
    if plan["full"]:
        print(f"next run:    full rebuild ({plan['reason']})")
    elif not plan["stale_shapes"]:
        print("next run:    noop (materialization is current)")
    else:
        shapes = ", ".join(
            f"{t}:{s}" for t, s in plan["stale_shapes"]
        )
        print(
            f"next run:    incremental over {shapes} "
            f"({plan['num_delta']} delta triples)"
        )
    return 0


def cmd_maintain_gc(args) -> int:
    import json

    from repro.maintain import GCError, WatermarkError, gc_generations

    try:
        report = gc_generations(
            args.state_dir, keep=args.keep, dry_run=args.dry_run
        )
    except (GCError, WatermarkError) as exc:
        raise SystemExit(f"maintain gc refused: {exc}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    verb = "would remove" if report.dry_run else "removed"
    print(f"live:        generation {report.live} (never collected)")
    print(
        "kept:        "
        + (", ".join(str(run) for run in report.kept) or "none")
    )
    print(
        f"{verb}:     "
        + (", ".join(str(run) for run in report.removed) or "nothing")
    )
    for path in report.removed_paths:
        print(f"  {path}")
    return 0


def _inline_or_file(text: str) -> str:
    """A flag value that is the content itself or a path to it."""
    import os
    from pathlib import Path

    return Path(text).read_text() if os.path.isfile(text) else text


def _install_serve_signals(app):
    """SIGHUP reloads the checkpoint, SIGTERM drains and stops *app*;
    returns the event SIGTERM sets.

    Both handlers hand off to a thread: a reload takes seconds, and
    ``app.close()`` blocks until the serving loop on this (the
    signal-handling) thread exits.  close() stops accepting and answers
    every accepted request first, so a TERM mid-batch drops nothing.
    """
    import signal
    import threading

    def _reload() -> None:
        try:
            summary = app.runtime.reload()
            print(
                "SIGHUP reload: now serving generation "
                f"{summary['generation']} from "
                f"{summary['checkpoint']}",
                flush=True,
            )
        except Exception as exc:  # noqa: BLE001 — keep serving
            print(
                f"SIGHUP reload failed ({exc}); the previous "
                "checkpoint keeps serving",
                flush=True,
            )

    got_sigterm = threading.Event()

    def _drain() -> None:
        got_sigterm.set()
        app.close()

    def in_thread(target, name):
        return lambda signum, frame: threading.Thread(
            target=target, name=name, daemon=True
        ).start()

    if hasattr(signal, "SIGHUP"):
        signal.signal(
            signal.SIGHUP, in_thread(_reload, "repro-sighup-reload")
        )
    if hasattr(signal, "SIGTERM"):
        signal.signal(
            signal.SIGTERM, in_thread(_drain, "repro-sigterm-drain")
        )
    return got_sigterm


def cmd_serve(args) -> int:
    from repro.serve import (
        FaultSpec,
        FaultSpecError,
        FitDefaults,
        ServiceError,
        ServingApp,
        SupervisorError,
    )

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    fault_spec = None
    if args.faults:
        try:
            fault_spec = FaultSpec.from_json(_inline_or_file(args.faults))
        except FaultSpecError as exc:
            raise SystemExit(f"--faults: {exc}")
    try:
        app = ServingApp(
            args.snapshot,
            args.checkpoint,
            save_checkpoint=args.save_checkpoint,
            host=args.host,
            port=args.port,
            workers=args.workers,
            fit_defaults=FitDefaults(
                queries_per_shape=args.fit_queries,
                epochs=args.fit_epochs,
            ),
            fault_spec=fault_spec,
        )
    except (ServiceError, SupervisorError) as exc:
        raise SystemExit(str(exc))
    if args.save_checkpoint:
        print(f"checkpoint written to {args.save_checkpoint}")
    got_sigterm = _install_serve_signals(app)
    print(
        f"serving {len(app.service.store)} triples at "
        f"{app.url} ({args.workers} worker(s))",
        flush=True,
    )
    try:
        app.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        drained = app.close()
        if got_sigterm.is_set():
            print(
                "SIGTERM: drained "
                + ("cleanly" if drained else "with stragglers")
                + ", exiting 0",
                flush=True,
            )
    return 0


def cmd_replay_record(args) -> int:
    from repro.replay import generate_trace, parse_mix, save_trace
    from repro.replay.trace import TraceFormatError

    if args.snapshot:
        store = TripleStore.load_snapshot(args.snapshot, verify=False)
    else:
        store = _load_store(args)
    mix = parse_mix(args.mix) if args.mix else None
    try:
        trace = generate_trace(
            store,
            rate_qps=args.rate,
            duration_s=args.duration,
            mix=mix,
            seed=args.seed,
            zipf_s=args.zipf_s,
            arrivals=args.arrivals,
        )
    except (TraceFormatError, ValueError) as exc:
        raise SystemExit(f"trace generation failed: {exc}")
    path = save_trace(trace, args.out)
    print(
        f"recorded {len(trace)} events over {trace.duration_s:.1f}s "
        f"({trace.offered_rate_qps:.1f} qps offered, "
        f"zipf_s={args.zipf_s}, arrivals={args.arrivals}) -> {path}"
    )
    return 0


def _parse_url(url: str) -> Tuple[str, int]:
    from urllib.parse import urlparse

    parsed = urlparse(url if "//" in url else f"http://{url}")
    if not parsed.hostname or not parsed.port:
        raise SystemExit(
            f"--url must look like http://host:port, got {url!r}"
        )
    return parsed.hostname, parsed.port


#: timeline actions that need in-process access to the serving stack —
#: refused up front when replaying against an external ``--url``.
_SELF_HOSTED_ACTIONS = {
    "kill_worker",
    "mutate",
    "maintain",
    "corrupt_next_checkpoint",
    "corrupt_checkpoint",
}


def cmd_replay_run(args) -> int:
    import json
    from pathlib import Path

    from repro.replay import (
        ReplayDriver,
        ReplayHarness,
        SLO,
        TimelineError,
        covering_shapes,
        format_report,
        load_trace,
        parse_timeline,
        start_timeline,
    )
    from repro.replay.trace import TraceFormatError
    from repro.serve import FitDefaults

    try:
        trace = load_trace(args.trace)
    except TraceFormatError as exc:
        raise SystemExit(f"--trace: {exc}")
    steps = []
    if args.timeline:
        try:
            steps = parse_timeline(_inline_or_file(args.timeline))
        except TimelineError as exc:
            raise SystemExit(f"--timeline: {exc}")
    slo = SLO(
        p99_ms=args.slo_p99_ms,
        p999_ms=args.slo_p999_ms,
        max_shed_rate=args.slo_max_shed,
        min_achieved_fraction=args.slo_min_achieved,
        max_error_rate=args.slo_max_errors,
    )
    harness = None
    if args.url:
        blocked = sorted(
            {s.action for s in steps} & _SELF_HOSTED_ACTIONS
        )
        if blocked:
            raise SystemExit(
                "timeline actions "
                + ", ".join(blocked)
                + " need the self-hosted harness (--snapshot), not "
                "--url: they reach into the server process"
            )
        host, port = _parse_url(args.url)
    else:
        if not args.snapshot:
            raise SystemExit(
                "replay run needs --snapshot (self-hosted) or --url"
            )
        # Fit (and later maintain) exactly the shapes the trace needs:
        # an admission manifest narrower than the workload would turn
        # covered queries into 422s and fail the error gate spuriously.
        shapes = covering_shapes(trace)
        fit_kwargs = dict(
            queries_per_shape=args.fit_queries,
            epochs=args.fit_epochs,
        )
        if shapes:
            fit_kwargs["shapes"] = shapes
        harness = ReplayHarness(
            args.snapshot,
            args.checkpoint,
            workers=args.workers,
            fit_defaults=FitDefaults(**fit_kwargs),
            maintain_state_dir=args.maintain_state_dir,
            maintain_options={"shapes": shapes} if shapes else None,
            seed=args.seed,
        )
        harness.wait_ready()
        host, port = harness.host, harness.port
        print(
            f"self-hosted server at {harness.url} "
            f"({args.workers} worker(s))"
        )
    timeline_log: List[dict] = []
    try:
        driver = ReplayDriver(
            host,
            port,
            deadline_s=args.deadline_s,
            connections=args.connections,
            honor_retry_after=not args.no_retry_after,
            max_retries=args.max_retries,
            rate_scale=args.rate_scale,
        )
        timeline_thread = None
        if steps:
            if harness is None:
                raise SystemExit(
                    "--timeline needs the self-hosted harness"
                )
            timeline_thread, timeline_log = start_timeline(
                steps, harness
            )
            print(
                f"chaos timeline armed: {len(steps)} step(s), "
                f"last at {steps[-1].at_s:.0f}s"
            )
        report, _ = driver.run(trace)
        if timeline_thread is not None:
            timeline_thread.join(timeout=120.0)
    finally:
        if harness is not None:
            harness.close()
    report.evaluate(slo)
    print(format_report(report))
    timeline_ok = all(entry.get("ok") for entry in timeline_log)
    for entry in timeline_log:
        marker = "ok " if entry.get("ok") else "FAIL"
        print(
            f"  [{marker}] at {entry['at_s']:>5.1f}s "
            f"{entry['action']} {' '.join(entry['args'])}: "
            f"{entry['detail']}"
        )
    if args.report:
        payload = report.to_dict()
        payload["timeline"] = timeline_log
        payload["timeline_ok"] = timeline_ok
        Path(args.report).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(f"SLO report written to {args.report}")
    if not timeline_ok:
        print("FAIL: chaos timeline had failing steps", flush=True)
        return 1
    if report.verdict != "ok":
        print("FAIL: SLO violated", flush=True)
        return 1
    return 0


def cmd_replay_report(args) -> int:
    import json
    from pathlib import Path

    from repro.replay import SLOReport, format_report

    payload = json.loads(Path(args.report).read_text())
    report = SLOReport.from_dict(payload)
    print(format_report(report))
    timeline = payload.get("timeline") or []
    for entry in timeline:
        marker = "ok " if entry.get("ok") else "FAIL"
        print(
            f"  [{marker}] at {entry['at_s']:>5.1f}s "
            f"{entry['action']} {' '.join(entry['args'])}: "
            f"{entry['detail']}"
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0 if report.verdict == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LMKG: learned cardinality estimation for KGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics")
    _add_store_options(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_train = sub.add_parser("train", help="train a model checkpoint")
    _add_store_options(p_train)
    p_train.add_argument(
        "--model",
        choices=("lmkg-s", "lmkg-u"),
        default="lmkg-s",
    )
    p_train.add_argument(
        "--shapes",
        nargs="+",
        default=["star:2"],
        help="topology:size pairs, e.g. star:2 chain:3",
    )
    p_train.add_argument("--epochs", type=int, default=40)
    p_train.add_argument(
        "--hidden", type=int, nargs="+", default=[128, 128]
    )
    p_train.add_argument(
        "--queries",
        type=int,
        default=500,
        help="training queries (lmkg-s) or instances (lmkg-u) per shape",
    )
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="checkpoint directory")
    p_train.set_defaults(func=cmd_train)

    p_est = sub.add_parser("estimate", help="estimate a SPARQL query")
    _add_store_options(p_est)
    p_est.add_argument(
        "--model",
        choices=("lmkg-s", "lmkg-u"),
        default="lmkg-s",
        help=(
            "lmkg-s and lmkg-u both read a train checkpoint directory "
            "(its artifact.json names the models)"
        ),
    )
    p_est.add_argument("--checkpoint", required=True)
    p_est.add_argument("--query", required=True, help="SPARQL text")
    p_est.add_argument(
        "--exact",
        action="store_true",
        help="also compute the exact count and q-error",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_wl = sub.add_parser(
        "workload", help="generate a labelled workload (TSV)"
    )
    _add_store_options(p_wl)
    p_wl.add_argument(
        "--topology", choices=("star", "chain"), default="star"
    )
    p_wl.add_argument("--size", type=_positive_int, default=2)
    p_wl.add_argument("--count", type=int, default=50)
    p_wl.add_argument("--seed", type=int, default=0)
    p_wl.add_argument(
        "--out",
        help="write the workload to this TSV file instead of stdout",
    )
    p_wl.set_defaults(func=cmd_workload)

    p_label = sub.add_parser(
        "label",
        help="generate a labelled workload with multiprocess labeling",
    )
    _add_store_options(p_label)
    p_label.add_argument(
        "--snapshot",
        help=(
            "attach to this on-disk store snapshot (shared read-only "
            "by all workers) instead of building a dataset"
        ),
    )
    p_label.add_argument(
        "--topology", choices=("star", "chain"), default="star"
    )
    p_label.add_argument("--size", type=_positive_int, default=2)
    p_label.add_argument("--count", type=int, default=1000)
    p_label.add_argument("--seed", type=int, default=0)
    p_label.add_argument(
        "--workers",
        type=int,
        default=1,
        help="labeling worker processes (0 = one per core; default 1)",
    )
    p_label.add_argument(
        "--out",
        help="write the labelled workload to this TSV file",
    )
    p_label.set_defaults(func=cmd_label)

    p_snap = sub.add_parser(
        "snapshot",
        help="save/load memory-mapped columnar store snapshots",
    )
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)
    p_snap_save = snap_sub.add_parser(
        "save", help="persist a graph as a columnar snapshot directory"
    )
    _add_store_options(p_snap_save)
    p_snap_save.add_argument(
        "--out", required=True, help="snapshot directory to write"
    )
    p_snap_save.set_defaults(func=cmd_snapshot_save)
    p_snap_load = snap_sub.add_parser(
        "load",
        help="memory-map a snapshot back and print a summary",
    )
    p_snap_load.add_argument(
        "--dir", required=True, help="snapshot directory to load"
    )
    p_snap_load.add_argument(
        "--eager",
        action="store_true",
        help="read columns into memory instead of memory-mapping",
    )
    p_snap_load.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checksum verification (still validates shapes)",
    )
    p_snap_load.set_defaults(func=cmd_snapshot_load)
    p_snap_info = snap_sub.add_parser(
        "info",
        help=(
            "describe a snapshot from its manifest alone (format, "
            "rows, CRC32) without loading any column"
        ),
    )
    p_snap_info.add_argument(
        "--dir", required=True, help="snapshot directory to describe"
    )
    p_snap_info.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON instead of the table",
    )
    p_snap_info.set_defaults(func=cmd_snapshot_info)

    p_maint = sub.add_parser(
        "maintain",
        help=(
            "incrementally maintain a trained estimator over a "
            "mutating graph (dbt-style materialization)"
        ),
    )
    maint_sub = p_maint.add_subparsers(
        dest="maintain_command", required=True
    )

    def _add_maintain_options(sub_parser) -> None:
        _add_store_options(sub_parser)
        sub_parser.add_argument(
            "--snapshot",
            help=(
                "load the live graph from this snapshot directory "
                "instead of building a dataset"
            ),
        )
        sub_parser.add_argument(
            "--state-dir",
            required=True,
            help=(
                "maintenance state directory (watermark, workload "
                "TSVs, per-generation checkpoints and snapshots)"
            ),
        )
        sub_parser.add_argument(
            "--shapes",
            nargs="+",
            default=["star:2", "chain:2"],
            help="topology:size pairs the materialization covers",
        )
        sub_parser.add_argument(
            "--queries",
            type=int,
            default=300,
            help="training queries per shape (full materialization)",
        )
        sub_parser.add_argument(
            "--epochs",
            type=int,
            default=15,
            help="training epochs for a full materialization",
        )
        sub_parser.add_argument(
            "--hidden", type=int, nargs="+", default=[64, 64]
        )
        sub_parser.add_argument("--seed", type=int, default=0)
        sub_parser.add_argument(
            "--json",
            action="store_true",
            help="machine-readable JSON instead of the table",
        )

    p_maint_run = maint_sub.add_parser(
        "run",
        help=(
            "plan, relabel, fine-tune, and publish the next "
            "generation (first run materializes from scratch)"
        ),
    )
    _add_maintain_options(p_maint_run)
    p_maint_run.add_argument(
        "--full",
        action="store_true",
        help="force a from-scratch rebuild",
    )
    p_maint_run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the plan without training or publishing anything",
    )
    p_maint_run.add_argument(
        "--reload-url",
        help=(
            "POST the published generation to this /admin/reload "
            "endpoint for a zero-downtime swap"
        ),
    )
    p_maint_run.set_defaults(func=cmd_maintain_run)
    p_maint_status = maint_sub.add_parser(
        "status",
        help="watermark vs. live store, freshness verdict, pending delta",
    )
    _add_maintain_options(p_maint_status)
    p_maint_status.set_defaults(func=cmd_maintain_status)
    p_maint_gc = maint_sub.add_parser(
        "gc",
        help=(
            "retire old gen-NNNN checkpoint/snapshot generations, "
            "never the live/base one"
        ),
    )
    p_maint_gc.add_argument(
        "--state-dir",
        required=True,
        help="maintenance state directory to collect",
    )
    p_maint_gc.add_argument(
        "--keep",
        type=int,
        required=True,
        help="number of newest generations to retain (>= 1)",
    )
    p_maint_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    p_maint_gc.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON instead of the table",
    )
    p_maint_gc.set_defaults(func=cmd_maintain_gc)

    p_serve = sub.add_parser(
        "serve",
        help="serve the estimation API over HTTP with micro-batching",
    )
    p_serve.add_argument(
        "--snapshot",
        required=True,
        help="store snapshot directory to serve (read-only, shared)",
    )
    p_serve.add_argument(
        "--checkpoint",
        help=(
            "LMKG.save checkpoint directory; omitted = fit the "
            "deterministic default framework from the snapshot at "
            "startup"
        ),
    )
    p_serve.add_argument(
        "--save-checkpoint",
        help="write the served framework to this checkpoint directory",
    )
    from repro.serve import DEFAULT_HOST, DEFAULT_PORT

    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="listen port (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "estimation worker processes sharing the snapshot "
            "(1 = in-process)"
        ),
    )
    from repro.serve.service import (
        DEFAULT_FIT_EPOCHS,
        DEFAULT_FIT_QUERIES,
    )

    p_serve.add_argument(
        "--fit-queries",
        type=int,
        default=DEFAULT_FIT_QUERIES,
        help="startup-fit training queries per shape (no --checkpoint)",
    )
    p_serve.add_argument(
        "--fit-epochs",
        type=int,
        default=DEFAULT_FIT_EPOCHS,
        help="startup-fit training epochs (no --checkpoint)",
    )
    p_serve.add_argument(
        "--faults",
        help=(
            "chaos testing: a FaultSpec as inline JSON or a path to a "
            'JSON file, e.g. \'{"kill_every": 50}\' (worker kills need '
            "--workers > 1; in-process mode use fail_every/delay_ms)"
        ),
    )
    p_serve.set_defaults(func=cmd_serve)

    p_replay = sub.add_parser(
        "replay",
        help="open-loop workload replay with SLO gates and chaos",
    )
    replay_sub = p_replay.add_subparsers(
        dest="replay_command", required=True
    )

    p_rec = replay_sub.add_parser(
        "record",
        help="generate a recorded trace (mixes, Zipf skew, arrivals)",
    )
    _add_store_options(p_rec)
    p_rec.add_argument(
        "--snapshot",
        help="sample queries from this snapshot instead of a dataset",
    )
    p_rec.add_argument(
        "--rate", type=float, default=50.0, help="offered rate (qps)"
    )
    p_rec.add_argument(
        "--duration", type=float, default=30.0, help="trace length (s)"
    )
    p_rec.add_argument(
        "--mix",
        action="append",
        help=(
            "topology:size[:weight], repeatable "
            "(default star:2:0.5 star:3:0.2 chain:2:0.2 chain:3:0.1)"
        ),
    )
    p_rec.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf skew of query popularity (0 = uniform)",
    )
    p_rec.add_argument(
        "--arrivals",
        choices=("poisson", "uniform"),
        default="poisson",
        help="arrival process",
    )
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument(
        "--out", required=True, help="trace file to write (TSV)"
    )
    p_rec.set_defaults(func=cmd_replay_record)

    p_run = replay_sub.add_parser(
        "run",
        help=(
            "fire a trace open-loop at a server (self-hosted via "
            "--snapshot, or external via --url) with optional chaos "
            "timeline; exits nonzero on SLO or timeline failure"
        ),
    )
    p_run.add_argument(
        "--trace", required=True, help="trace file from 'replay record'"
    )
    p_run.add_argument(
        "--snapshot",
        help="self-host an in-process server on this snapshot",
    )
    p_run.add_argument(
        "--checkpoint",
        help="trained checkpoint for the self-hosted server",
    )
    p_run.add_argument(
        "--url",
        help=(
            "replay against an already-running server instead "
            "(http://host:port); timelines that reach into the server "
            "process are refused"
        ),
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="supervised workers for the self-hosted server",
    )
    p_run.add_argument(
        "--timeline",
        help="chaos timeline: inline DSL text or a path to a script",
    )
    p_run.add_argument(
        "--maintain-state-dir",
        help="state dir for timeline 'maintain' steps (default scratch)",
    )
    p_run.add_argument("--fit-queries", type=int, default=100)
    p_run.add_argument("--fit-epochs", type=int, default=4)
    p_run.add_argument(
        "--deadline-s",
        type=float,
        default=5.0,
        help="per-request deadline from scheduled arrival",
    )
    p_run.add_argument(
        "--connections",
        type=int,
        default=8,
        help="keep-alive client pool size",
    )
    p_run.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="429 retries per request (honoring server backoff)",
    )
    p_run.add_argument(
        "--no-retry-after",
        action="store_true",
        help="ignore server Retry-After hints (fixed 1s backoff)",
    )
    p_run.add_argument(
        "--rate-scale",
        type=float,
        default=1.0,
        help="replay the trace at N x its recorded rate",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--slo-p99-ms", type=float, default=500.0, help="p99 gate (ms)"
    )
    p_run.add_argument(
        "--slo-p999-ms", type=float, default=None, help="p99.9 gate (ms)"
    )
    p_run.add_argument(
        "--slo-max-shed",
        type=float,
        default=0.05,
        help="max shed (429) fraction",
    )
    p_run.add_argument(
        "--slo-min-achieved",
        type=float,
        default=0.95,
        help="min achieved/offered rate fraction",
    )
    p_run.add_argument(
        "--slo-max-errors",
        type=float,
        default=0.0,
        help="max non-{200,429} fraction (0 = the chaos gate)",
    )
    p_run.add_argument(
        "--report", help="write the SLO report (+ timeline log) as JSON"
    )
    p_run.set_defaults(func=cmd_replay_run)

    p_rep = replay_sub.add_parser(
        "report",
        help="pretty-print a saved SLO report; exits nonzero if violated",
    )
    p_rep.add_argument("report", help="report JSON from 'replay run'")
    p_rep.add_argument(
        "--json", action="store_true", help="also dump the raw JSON"
    )
    p_rep.set_defaults(func=cmd_replay_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
