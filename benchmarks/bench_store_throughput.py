"""Layer microbenchmark: what `benchmarks/e2e` cannot see (`BENCH_store.json`).

``benchmarks/e2e`` is the one measure of everything a request touches —
HTTP, admission, the scheduler, the worker pool, reloads, open-loop
replay.  This file keeps only the layers underneath that no e2e
workload isolates, on a synthetic ~100k-triple hub-heavy graph:

- **ingest**: triples/sec into the store plus the columnar index build,
  and the array-native ``add_all`` bulk path against a per-triple
  ``add`` loop on the same 100k batch,
- **persistence**: snapshot save time, plus cold-load time of the
  saved snapshot both memory-mapped and eager,
- **pattern matching**: single-triple-pattern ``count_pattern`` and
  ``match_pattern`` throughput over the columnar permutations,
- **labeling**: exact star/chain counting throughput of the vectorized
  counters over a 10k-query workload, against the seed's dict-backed
  Python counters,
- **parallel labeling**: the same 10k-query batch split across a
  4-process pool in which every worker memory-maps the saved snapshot
  read-only (``repro.rdf.parallel``), against the serial vectorized
  path,
- **batch estimation**: LMKG-S queries/sec through
  ``Framework.estimate_batch`` vs the per-query ``estimate`` loop, the
  share of the batched call spent in ``LMKGS.featurize``, and a width
  sweep (1, 2, 4, 8, 256 queries per call) splitting each call into
  featurize / forward / route, whose width-1 call against one query of
  the width-256 call is the fixed per-call cost,
- **MADE inference trunk**: rows/sec of the masked autoregressive
  forward at the serving batch width — the seed's float64
  re-masked-per-call trunk against the fused float32 inference cache
  (pre-masked weights, float32 table shadows) — plus LMKG-U
  ``estimate_batch`` queries/sec through the incremental Gumbel-max
  particle sweep,
- **MADE training**: ms per training step (``loss_and_backward`` plus
  one ``Adam.step``) at batch 256 over the graph's vocabulary, and the
  wall time of the ``LMKGU.fit`` whose estimates are timed above,
- **maintenance** (`test_maintenance_incremental`, its own ~20k-triple
  graph): one incremental maintenance run over a 1% vocabulary-
  preserving delta — relabel affected queries, fine-tune touched
  models — against a forced full refit of the same live graph.

Gates — every assertion in this file, by test.  Each is a ratio of two
timings taken in the same run, or an equality, so none depends on the
speed of the machine (CI's ``bench-regression`` job runs them and points
here rather than restating them):

- ``test_store_throughput``: vectorized labeling >= 5x the dict-backed
  counters; ``add_all`` >= 10x the per-triple loop; parallel labeling
  >= 2x on 4 workers (only where >= 4 CPUs are usable);
  ``featurize_share <= 0.5``; a width-1 ``estimate_batch`` call
  <= ``MAX_FIXED_COST_RATIO`` queries of a width-256 call; fused
  float32 MADE forward >= 2x the float64 trunk.  Equality checks: bulk
  and loop stores hold as many triples as the ingested store, the
  loaded snapshot counts a probe pattern like the store, vectorized
  labels == Python labels, parallel labels == serial labels, fused and
  float64 MADE outputs agree to 1e-3.  The memory-mapped cold load and LMKG-U ``estimate_batch`` q/s
  are absolute rates, as are the MADE training step and ``LMKGU.fit``:
  recorded, not gated.
- ``test_maintenance_incremental``: the first run is full, the 1% delta
  plans an incremental run, incremental >= 5x the full refit, and on
  every affected shape its mean q-error <= 2x the refit's.

Results print as tables and persist (merged, section by section) to
``benchmarks/results/BENCH_store.json`` so successive PRs can track the
numbers; every run is also appended to ``BENCH_history.jsonl`` beside it.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import build_throughput_store
from repro.bench.reporting import append_history, format_table, merge_json
from repro.core.framework import LMKG
from repro.core.lmkg_s import LMKGSConfig
from repro.rdf import fastcount
from repro.rdf.parallel import available_cpus, label_queries
from repro.rdf.store import TripleStore
from repro.rdf.terms import Variable, pattern
from repro.sampling.random_walk import sample_instances
from repro.sampling.unbinding import query_from_instance, random_unbound_mask
from repro.sampling.workload import QueryRecord, Workload

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_store.json"
HISTORY_PATH = RESULT_PATH.with_name("BENCH_history.jsonl")

NUM_TRIPLES = 100_000
NUM_QUERIES = 10_000
#: queries given to the Python reference counters (full 10k would take
#: minutes — which is the point being demonstrated).
REFERENCE_QUERIES = 150
QUERY_SHAPES = (("star", 2), ("star", 3), ("chain", 2), ("chain", 3))
#: Pool size for the parallel-labeling comparison; the >= 2x gate only
#: applies when the machine actually has that many cores.
PARALLEL_WORKERS = 4
#: ``estimate_batch`` widths of the fixed-cost sweep, and the calls
#: timed at each width below the widest (which answers every query).
SWEEP_WIDTHS = (1, 2, 4, 8, 256)
SWEEP_CALLS = 256
#: Bound on the sweep's same-run ratio: a width-1 call may cost at most
#: this many queries of a width-256 call.  Measured on 2 vCPUs,
#: fourteen runs a side: 6.1-11.2 (median 8.9) before the per-call
#: costs were cut, 7.5-8.8 (median 8.2) after; the bound is the after
#: maximum plus ~19 %.
MAX_FIXED_COST_RATIO = 10.5
#: Minibatch rows of the timed MADE training step (``MADE.fit``'s default).
TRAIN_BATCH = 256


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _make_queries(store, rng):
    """~NUM_QUERIES unlabeled star/chain queries over the bench graph."""
    queries = []
    per_shape = NUM_QUERIES // len(QUERY_SHAPES)
    for i, (topology, size) in enumerate(QUERY_SHAPES):
        instances, _ = sample_instances(
            store, topology, size, per_shape, seed=11 + i
        )
        for instance in instances:
            mask = random_unbound_mask(size + 1, rng, min_unbound=1)
            queries.append(
                (topology, size,
                 query_from_instance(topology, instance, mask))
            )
    return queries


def _pattern_workload(store, rng, count=20_000):
    """A mix of bound/unbound single patterns drawn from stored triples."""
    col = store.backend
    idx = rng.integers(0, col.size, size=count)
    subjects = col.spo_s[idx].tolist()
    predicates = col.spo_p[idx].tolist()
    objects = col.spo_o[idx].tolist()
    kinds = rng.integers(0, 4, size=count).tolist()
    patterns = []
    for s, p, o, kind in zip(subjects, predicates, objects, kinds):
        if kind == 0:
            patterns.append(pattern(s, p, Variable("o")))
        elif kind == 1:
            patterns.append(pattern(Variable("s"), p, o))
        elif kind == 2:
            patterns.append(pattern(s, Variable("p"), Variable("o")))
        else:
            patterns.append(pattern(Variable("s"), p, Variable("o")))
    return patterns


def _width_sweep(framework, queries, passes=7):
    """``Framework.estimate_batch`` per call at every sweep width.

    Each width answers consecutive batches of *queries*.  The widths
    take turns, pass after pass, and each keeps its fastest pass, so a
    slow spell of the machine lands on every width alike.  ``call_us``
    / ``query_us`` come from passes without instrumentation; the split
    from passes with a stopwatch on every model's ``featurize`` and
    ``estimate_batch``: ``featurize_us`` is the encoder, ``forward_us``
    the rest of the model call (network, scaler inverse, validation),
    ``route_us`` the framework call around its model calls
    (classification, grouping, validation).
    """
    spent = {"featurize": 0.0, "model": 0.0}

    def stopwatch(fn, key):
        def timed(batch):
            start = time.perf_counter()
            try:
                return fn(batch)
            finally:
                spent[key] += time.perf_counter() - start

        return timed

    batches = {
        width: [
            queries[i:i + width]
            for i in range(0, len(queries) - width + 1, width)
        ][:SWEEP_CALLS]
        for width in SWEEP_WIDTHS
    }

    def best_passes():
        best = {}
        for _ in range(passes):
            for width, calls in batches.items():
                spent.update(featurize=0.0, model=0.0)
                _, total = _timed(
                    lambda: [framework.estimate_batch(b) for b in calls]
                )
                if width not in best or total < best[width][0]:
                    best[width] = (total, spent["featurize"], spent["model"])
        return best

    clean = best_passes()
    for model in framework.models.values():
        model.featurize = stopwatch(model.featurize, "featurize")
        model.estimate_batch = stopwatch(model.estimate_batch, "model")
    try:
        split = best_passes()
    finally:
        for model in framework.models.values():
            del model.featurize, model.estimate_batch
    sweep = {}
    for width, calls in batches.items():
        n = len(calls)
        total_s, featurize_s, model_s = split[width]
        sweep[width] = {
            "call_us": round(clean[width][0] / n * 1e6, 2),
            "query_us": round(clean[width][0] / (n * width) * 1e6, 2),
            "featurize_us": round(featurize_s / n * 1e6, 2),
            "forward_us": round((model_s - featurize_s) / n * 1e6, 2),
            "route_us": round((total_s - model_s) / n * 1e6, 2),
        }
    return sweep


def test_store_throughput(report, tmp_path):
    rng = np.random.default_rng(5)
    source = build_throughput_store(NUM_TRIPLES, seed=0)
    triples = list(source)

    # Ingest into a fresh store, then force the columnar build.
    fresh = type(source)()
    _, ingest_s = _timed(lambda: fresh.add_all(triples))
    _, build_s = _timed(lambda: fresh.backend)
    store = fresh

    # Bulk (array-native) ingest vs the per-triple add loop, same batch.
    batch = np.array(triples, dtype=np.int64)
    loop_store = type(source)()

    def _per_triple_ingest():
        add = loop_store.add
        for s, p, o in triples:
            add(s, p, o)

    _, loop_ingest_s = _timed(_per_triple_ingest)
    bulk_store = type(source)()
    _, bulk_ingest_s = _timed(lambda: bulk_store.add_all(batch))
    assert len(bulk_store) == len(loop_store) == len(store)
    bulk_speedup = loop_ingest_s / bulk_ingest_s

    # Persistence: snapshot save, then cold loads (memmap and eager).
    snapshot_dir = tmp_path / "snapshot"
    _, save_s = _timed(lambda: store.save_snapshot(snapshot_dir))
    snapshot_bytes = sum(
        f.stat().st_size for f in snapshot_dir.iterdir()
    )
    loaded, mmap_load_s = _timed(
        lambda: TripleStore.load_snapshot(snapshot_dir)
    )
    _, eager_load_s = _timed(
        lambda: TripleStore.load_snapshot(snapshot_dir, mmap_mode=None)
    )
    # The memmap-backed store must answer like the original.
    probe_p = int(store.backend.pso_p[len(store) // 2])
    probe = pattern(Variable("s"), probe_p, Variable("o"))
    assert loaded.count_pattern(probe) == store.count_pattern(probe)
    assert len(loaded) == len(store)

    # Single-pattern lookups.
    patterns = _pattern_workload(store, rng)
    _, count_s = _timed(
        lambda: [store.count_pattern(tp) for tp in patterns]
    )
    probe = patterns[: len(patterns) // 4]
    matched, match_s = _timed(
        lambda: sum(
            sum(1 for _ in store.match_pattern(tp)) for tp in probe
        )
    )

    # Labeling throughput: vectorized vs the seed's dict/Python path.
    queries = _make_queries(store, rng)
    fast_counts, fast_s = _timed(
        lambda: [
            fastcount.count_query(store, q) for _, _, q in queries
        ]
    )
    reference = queries[:: max(len(queries) // REFERENCE_QUERIES, 1)][
        :REFERENCE_QUERIES
    ]
    slow_counts, slow_s = _timed(
        lambda: [
            (
                fastcount._count_star_python(store, q)
                if topology == "star"
                else fastcount._count_chain_python(store, q)
            )
            for topology, _, q in reference
        ]
    )
    fast_qps = len(queries) / fast_s
    slow_qps = len(reference) / slow_s
    speedup = fast_qps / slow_qps
    # Exactness spot-check against the reference implementation.
    for (topology, _, _), fast_value, slow_value in zip(
        reference,
        fast_counts[:: max(len(queries) // REFERENCE_QUERIES, 1)],
        slow_counts,
    ):
        assert fast_value == slow_value

    # Parallel labeling: same batch, split across a worker pool that
    # memory-maps the snapshot saved above (pool startup + read-only
    # attach included in the timing — the honest end-to-end number).
    just_queries = [q for _, _, q in queries]
    parallel_counts, parallel_s = _timed(
        lambda: label_queries(
            just_queries,
            store=store,
            snapshot_dir=snapshot_dir,
            workers=PARALLEL_WORKERS,
        )
    )
    assert parallel_counts == fast_counts, (
        "parallel labeling diverged from the serial counters"
    )
    parallel_qps = len(queries) / parallel_s
    parallel_speedup = fast_s / parallel_s

    # Batch estimation QPS through the framework router.
    labelled = [
        QueryRecord(q, topology, size, count)
        for (topology, size, q), count in zip(queries, fast_counts)
        if count >= 1
    ][:4_000]
    framework = LMKG(
        store,
        model_type="supervised",
        grouping="size",
        lmkgs_config=LMKGSConfig(hidden_sizes=(64, 64), epochs=10),
    )
    framework.fit(shapes=list(QUERY_SHAPES), workload=labelled)
    serve = [r.query for r in labelled[:2_000]]
    _, loop_s = _timed(lambda: [framework.estimate(q) for q in serve])
    # Featurisation is timed inside the same call it is a share of: a
    # stopwatch around each model's ``featurize`` while the batch runs.
    featurize_seconds = []
    for model in framework.models.values():
        def _stopwatch(batch, featurize=model.featurize):
            features, seconds = _timed(lambda: featurize(batch))
            featurize_seconds.append(seconds)
            return features

        model.featurize = _stopwatch
    # Collect first: a full collection of the set-up's garbage would
    # otherwise land inside this one timed call (~55 ms on a ~15 ms
    # call, 2 vCPU) and halve both the rate and featurize_share.
    gc.collect()
    _, batch_s = _timed(lambda: framework.estimate_batch(serve))
    for model in framework.models.values():
        del model.featurize
    featurize_share = sum(featurize_seconds) / batch_s

    # The fixed cost of one call: the same queries at widths 1 .. 256;
    # a width-1 call against one query of a width-256 call.
    sweep = _width_sweep(framework, serve)
    widest = max(SWEEP_WIDTHS)
    fixed_cost_ratio = sweep[1]["call_us"] / sweep[widest]["query_us"]

    # MADE inference trunk: the fused float32 forward against the seed's
    # float64 trunk (weight * mask re-materialised per layer per call,
    # per-position embedding gathers) on an identical model at the
    # serving batch width.  Both produce the same logits up to float32
    # rounding — asserted below — so the speedup is pure dtype/caching.
    from repro.core.lmkg_u import LMKGU, LMKGUConfig
    from repro.nn.masked import MADE
    from repro.nn.optimizers import Adam

    made = MADE(
        var_vocabs=[0, 1, 0, 1, 0],
        vocab_sizes=[store.num_nodes + 1, store.num_predicates + 1],
        embed_dim=32,
        hidden_sizes=(256, 256),
        seed=7,
    )
    made_rows = 1024  # a serving-width particle block
    made_ids = rng.integers(
        1, min(store.num_nodes, store.num_predicates),
        size=(made_rows, made.num_vars),
    )

    def _seed_forward(model, ids):
        """The seed trunk, verbatim: float64, re-masked every call."""
        blocks = [
            model.tables[model.var_vocabs[i]].value[ids[:, i]]
            for i in range(model.num_vars)
        ]
        h = np.concatenate(blocks, axis=1)
        for li, layer in enumerate(model.hidden_layers):
            pre = h @ (layer.weight.value * layer.mask) + layer.bias.value
            post = np.maximum(pre, 0.0)
            use_res = (
                model.residual and li > 0 and post.shape[1] == h.shape[1]
            )
            h = post + h if use_res else post
        out = h @ (
            model.out_proj.weight.value * model.out_proj.mask
        ) + model.out_proj.bias.value
        dim = model.embed_dim
        return [
            out[:, i * dim: (i + 1) * dim]
            @ model.tables[model.var_vocabs[i]].value.T
            + model.out_bias[i].value
            for i in range(model.num_vars)
        ]

    # Equivalence before timing: fused float32 logits track float64.
    seed_logits = _seed_forward(made, made_ids)
    fused_logits = made.forward(made_ids)
    for ref, got in zip(seed_logits, fused_logits):
        assert np.allclose(ref, got, rtol=1e-3, atol=1e-3)

    def _best_time(fn, repeats=5):
        """Fastest of *repeats* runs: robust to scheduler noise, which
        a single sample of either side would fold into the gate."""
        return min(_timed(fn)[1] for _ in range(repeats))

    made64_s = _best_time(lambda: _seed_forward(made, made_ids))
    made32_s = _best_time(lambda: made.forward(made_ids))
    made64_rows_s = made_rows / made64_s
    made32_rows_s = made_rows / made32_s
    made_speedup = made32_rows_s / made64_rows_s

    # MADE training step on the same model: loss_and_backward plus one
    # Adam step on a batch-256 minibatch over the graph's vocabulary.
    train_ids = made_ids[:TRAIN_BATCH]
    optimizer = Adam(made.parameters(), lr=1e-3, clip_norm=5.0)

    def _train_step():
        made.loss_and_backward(train_ids)
        optimizer.step()

    _train_step()  # warm, untimed
    train_step_s = _best_time(_train_step)

    # LMKG-U end to end: the cross-query batched particle sweep with
    # the vocab-streamed head, through estimate_batch at serving batch
    # width.  One full untimed pass first: the fused-cache builds and
    # the allocator's large-page warm-up happen there, so the timed
    # pass measures the steady state a long-lived server sees.
    lmkgu = LMKGU(
        store,
        "star",
        2,
        LMKGUConfig(
            embed_dim=16,
            hidden_sizes=(64, 64),
            epochs=2,
            training_samples=4_000,
            particles=64,
        ),
    )
    _, lmkgu_fit_s = _timed(lmkgu.fit)
    lmkgu_queries = [
        q for topology, size, q in queries if (topology, size) == ("star", 2)
    ][:1024]
    lmkgu.estimate_batch(lmkgu_queries)  # warm, untimed
    _, lmkgu_s = _timed(lambda: lmkgu.estimate_batch(lmkgu_queries))
    lmkgu_qps = len(lmkgu_queries) / lmkgu_s

    results = {
        "graph": {
            "num_triples": len(store),
            "num_nodes": store.num_nodes,
            "num_predicates": store.num_predicates,
        },
        "ingest": {
            "triples_per_sec": round(len(triples) / ingest_s, 1),
            "columnar_build_triples_per_sec": round(
                len(triples) / build_s, 1
            ),
            "bulk_add_all_triples_per_sec": round(
                len(triples) / bulk_ingest_s, 1
            ),
            "per_triple_add_triples_per_sec": round(
                len(triples) / loop_ingest_s, 1
            ),
            "bulk_speedup": round(bulk_speedup, 1),
        },
        "persistence": {
            "snapshot_save_ms": round(save_s * 1000, 2),
            "snapshot_bytes": snapshot_bytes,
            "cold_load_mmap_ms": round(mmap_load_s * 1000, 2),
            "cold_load_eager_ms": round(eager_load_s * 1000, 2),
        },
        "pattern_match": {
            "count_pattern_per_sec": round(len(patterns) / count_s, 1),
            "match_enumeration_triples_per_sec": round(
                matched / match_s, 1
            ),
        },
        "labeling": {
            "num_queries": len(queries),
            "vectorized_queries_per_sec": round(fast_qps, 1),
            "python_reference_queries_per_sec": round(slow_qps, 1),
            "speedup": round(speedup, 1),
            "parallel_workers": PARALLEL_WORKERS,
            "parallel_queries_per_sec": round(parallel_qps, 1),
            "parallel_speedup": round(parallel_speedup, 2),
            "cpu_count": available_cpus(),
        },
        "batch_estimation": {
            "estimate_loop_qps": round(len(serve) / loop_s, 1),
            "estimate_batch_qps": round(len(serve) / batch_s, 1),
            "batch_speedup": round(loop_s / batch_s, 2),
            "featurize_share": round(featurize_share, 3),
            "width_sweep": {str(w): row for w, row in sweep.items()},
            "fixed_cost_ratio": round(fixed_cost_ratio, 2),
        },
        "made_inference": {
            "batch_rows": made_rows,
            "made_forward_rows_per_s": {
                "float64_seed": round(made64_rows_s, 1),
                "float32_fused": round(made32_rows_s, 1),
            },
            "fused_speedup": round(made_speedup, 2),
            "estimate_batch_qps": round(lmkgu_qps, 1),
            "estimate_batch_size": len(lmkgu_queries),
            "particles": lmkgu.config.particles,
        },
        "made_training": {
            "batch_rows": TRAIN_BATCH,
            "vocab_sizes": made.vocab_sizes,
            "step_ms": round(train_step_s * 1000, 2),
            "lmkgu_fit_s": round(lmkgu_fit_s, 3),
            "lmkgu_training_samples": lmkgu.config.training_samples,
            "lmkgu_epochs": lmkgu.config.epochs,
        },
    }
    merge_json(RESULT_PATH, results)
    append_history(HISTORY_PATH, results)

    report(
        format_table(
            ("Metric", "Value"),
            [
                ["triples", len(store)],
                ["ingest triples/s", results["ingest"]["triples_per_sec"]],
                [
                    "columnar build triples/s",
                    results["ingest"]["columnar_build_triples_per_sec"],
                ],
                [
                    "bulk add_all triples/s",
                    results["ingest"]["bulk_add_all_triples_per_sec"],
                ],
                [
                    "per-triple add triples/s",
                    results["ingest"]["per_triple_add_triples_per_sec"],
                ],
                ["bulk ingest speedup", results["ingest"]["bulk_speedup"]],
                [
                    "snapshot save ms",
                    results["persistence"]["snapshot_save_ms"],
                ],
                [
                    "cold load (mmap) ms",
                    results["persistence"]["cold_load_mmap_ms"],
                ],
                [
                    "cold load (eager) ms",
                    results["persistence"]["cold_load_eager_ms"],
                ],
                [
                    "count_pattern/s",
                    results["pattern_match"]["count_pattern_per_sec"],
                ],
                [
                    "match triples/s",
                    results["pattern_match"][
                        "match_enumeration_triples_per_sec"
                    ],
                ],
                ["labeling q/s (vectorized)", round(fast_qps, 1)],
                ["labeling q/s (seed dict path)", round(slow_qps, 1)],
                ["labeling speedup", round(speedup, 1)],
                [
                    f"labeling q/s ({PARALLEL_WORKERS} workers)",
                    round(parallel_qps, 1),
                ],
                [
                    "parallel labeling speedup",
                    round(parallel_speedup, 2),
                ],
                [
                    "estimate loop q/s",
                    results["batch_estimation"]["estimate_loop_qps"],
                ],
                [
                    "estimate_batch q/s",
                    results["batch_estimation"]["estimate_batch_qps"],
                ],
                [
                    "featurize share of estimate_batch",
                    results["batch_estimation"]["featurize_share"],
                ],
                *[
                    [
                        f"width {w}: us/call (featurize/forward/route)",
                        f"{row['call_us']} ({row['featurize_us']}/"
                        f"{row['forward_us']}/{row['route_us']})",
                    ]
                    for w, row in sweep.items()
                ],
                [
                    f"fixed-cost ratio (width-1 call / width-{widest} "
                    "query)",
                    results["batch_estimation"]["fixed_cost_ratio"],
                ],
                [
                    "MADE fwd rows/s (float64 seed)",
                    results["made_inference"]["made_forward_rows_per_s"][
                        "float64_seed"
                    ],
                ],
                [
                    "MADE fwd rows/s (float32 fused)",
                    results["made_inference"]["made_forward_rows_per_s"][
                        "float32_fused"
                    ],
                ],
                [
                    "MADE fused speedup",
                    results["made_inference"]["fused_speedup"],
                ],
                [
                    "LMKG-U estimate_batch q/s",
                    results["made_inference"]["estimate_batch_qps"],
                ],
                [
                    f"MADE train step ms (batch {TRAIN_BATCH})",
                    results["made_training"]["step_ms"],
                ],
                ["LMKG-U fit s", results["made_training"]["lmkgu_fit_s"]],
            ],
            title=(
                f"Store throughput — {len(store)} triples, "
                f"{len(queries)} labelled queries -> {RESULT_PATH.name}"
            ),
        )
    )

    # The acceptance gate of the columnar refactor.
    assert speedup >= 5.0, f"labeling speedup {speedup:.1f}x < 5x"
    # The acceptance gate of the bulk-ingest path.
    assert bulk_speedup >= 10.0, (
        f"bulk ingest speedup {bulk_speedup:.1f}x < 10x"
    )
    # The acceptance gate of the parallel-labeling subsystem.  The
    # speedup is physically bounded by the CPUs this process may
    # actually use (affinity/cgroup-aware, not the host's logical
    # count), so the >= 2x gate only binds where the pool can run
    # 4-wide (CI runners have 4 vCPUs); the measured number is recorded
    # above either way, alongside cpu_count, so regressions stay
    # visible.
    if available_cpus() >= PARALLEL_WORKERS:
        assert parallel_speedup >= 2.0, (
            f"parallel labeling speedup {parallel_speedup:.2f}x < 2x "
            f"on {PARALLEL_WORKERS} workers"
        )
    # The acceptance gate of the array-native encoders: turning queries
    # into features must stay the smaller part of a batched estimate.
    # A ratio of two timings of one call, so it does not depend on the
    # machine; the per-term Python encoders it replaced read ~0.7.
    assert featurize_share <= 0.5, (
        f"featurize is {featurize_share:.2f} of estimate_batch (> 0.5): "
        f"featurisation dominates the estimator again"
    )
    # The acceptance gate of the per-call cost cut: a one-query call may
    # cost at most MAX_FIXED_COST_RATIO queries of a wide call.  A
    # ratio of two timings taken in the same run.
    assert fixed_cost_ratio <= MAX_FIXED_COST_RATIO, (
        f"a width-1 estimate_batch costs {fixed_cost_ratio:.1f} "
        f"width-{widest} queries (> {MAX_FIXED_COST_RATIO}): the fixed "
        f"per-call cost is back ({sweep[1]})"
    )
    # The acceptance gate of the fused inference trunk: the float32
    # pre-masked forward must at least double the seed's float64
    # re-masked-per-call trunk at the serving batch width.
    assert made_speedup >= 2.0, (
        f"fused float32 MADE forward {made_speedup:.2f}x < 2x the "
        f"float64 seed trunk ({made32_rows_s:.0f} vs "
        f"{made64_rows_s:.0f} rows/s)"
    )


#: maintenance bench scale: its own graph (smaller than the throughput
#: one so the full refit stays a few seconds) and a training config
#: heavy enough that refitting is genuinely expensive relative to the
#: delta work — the trade the maintenance subsystem exists to win.
MAINT_TRIPLES = 20_000
MAINT_SHAPES = (("star", 2), ("chain", 2))
MAINT_QUERIES_PER_SHAPE = 400
MAINT_EPOCHS = 150
MAINT_FINETUNE_EPOCHS = 2
MAINT_HIDDEN = (96, 96)
#: delta size as a fraction of the graph (the "1% delta" scenario).
MAINT_DELTA_FRACTION = 0.01


def _vocab_preserving_delta(store, fraction, rng):
    """~fraction*|store| novel triples over the *existing* vocabulary.

    Recombines stored subjects/predicates/objects so node and predicate
    counts (and the dictionary) stay fixed — the precondition for the
    incremental path; new vocabulary correctly forces a full rebuild
    and would bench the wrong thing.
    """
    rows = store.backend.rows()
    subjects = np.unique(rows[:, 0])
    predicates = np.unique(rows[:, 1])
    objects = np.unique(rows[:, 2])
    target = max(int(len(store) * fraction), 1)
    delta = np.empty((0, 3), dtype=np.int64)
    while delta.shape[0] < target:
        candidates = np.stack(
            [
                rng.choice(subjects, 4 * target),
                rng.choice(predicates, 4 * target),
                rng.choice(objects, 4 * target),
            ],
            axis=1,
        ).astype(np.int64)
        candidates = np.unique(candidates, axis=0)
        candidates = candidates[~store.backend.isin_rows(candidates)]
        delta = np.unique(
            np.concatenate([delta, candidates]), axis=0
        )
    return delta[:target]


def test_maintenance_incremental(report, tmp_path):
    """Incremental maintenance vs full refit on a 1% graph delta.

    Gates: the incremental run (relabel affected + fine-tune touched
    models from the previous checkpoint) must be >= 5x faster than a
    forced full rebuild of the same live graph, and its accuracy on the
    affected shapes must stay within 2x of the full refit's mean
    q-error — the quality the time saving must not cost.
    """
    from repro.core.metrics import summarize
    from repro.maintain import MaintenanceRunner
    from repro.sampling.workload import generate_workload
    from repro.serve.artifacts import load_checkpoint

    store = build_throughput_store(MAINT_TRIPLES, seed=0)
    rng = np.random.default_rng(13)

    runner = MaintenanceRunner(
        store,
        tmp_path / "maintain-state",
        shapes=MAINT_SHAPES,
        queries_per_shape=MAINT_QUERIES_PER_SHAPE,
        epochs=MAINT_EPOCHS,
        finetune_epochs=MAINT_FINETUNE_EPOCHS,
        hidden_sizes=MAINT_HIDDEN,
        seed=0,
    )
    first, first_s = _timed(runner.run)
    assert first.action == "full"

    delta = _vocab_preserving_delta(store, MAINT_DELTA_FRACTION, rng)
    store.add_all(delta)

    incremental, incremental_s = _timed(runner.run)
    assert incremental.action == "incremental", (
        f"1% vocabulary-preserving delta planned a "
        f"{incremental.action} run ({(incremental.plan or {}).get('reason')})"
    )

    # The comparison point: a from-scratch rebuild of the same live
    # graph with the same config, in its own state directory.
    refit_runner = MaintenanceRunner(
        store,
        tmp_path / "refit-state",
        shapes=MAINT_SHAPES,
        queries_per_shape=MAINT_QUERIES_PER_SHAPE,
        epochs=MAINT_EPOCHS,
        finetune_epochs=MAINT_FINETUNE_EPOCHS,
        hidden_sizes=MAINT_HIDDEN,
        seed=0,
    )
    refit, refit_s = _timed(lambda: refit_runner.run(full=True))
    speedup = refit_s / incremental_s

    # Accuracy parity on the affected shapes: both checkpoints answer a
    # fresh labelled workload drawn from the live (mutated) graph.
    fw_incremental, _ = load_checkpoint(
        incremental.checkpoint_dir, store
    )
    fw_refit, _ = load_checkpoint(refit.checkpoint_dir, store)
    parity = {}
    for topology, size in MAINT_SHAPES:
        test = generate_workload(
            store, topology, size, 150, seed=99
        ).records
        truths = [r.cardinality for r in test]
        queries = [r.query for r in test]
        parity[f"{topology}_{size}"] = {
            "incremental_mean_qerr": round(
                summarize(
                    fw_incremental.estimate_batch(queries).tolist(),
                    truths,
                ).mean,
                2,
            ),
            "refit_mean_qerr": round(
                summarize(
                    fw_refit.estimate_batch(queries).tolist(), truths
                ).mean,
                2,
            ),
        }

    results = {
        "maintenance": {
            "num_triples": len(store),
            "delta_triples": int(delta.shape[0]),
            "epochs": MAINT_EPOCHS,
            "finetune_epochs": MAINT_FINETUNE_EPOCHS,
            "queries_per_shape": MAINT_QUERIES_PER_SHAPE,
            "first_materialization_s": round(first_s, 3),
            "full_refit_s": round(refit_s, 3),
            "incremental_s": round(incremental_s, 3),
            "incremental_speedup": round(speedup, 2),
            "relabeled": incremental.relabeled,
            "qerror_parity": parity,
        }
    }
    merge_json(RESULT_PATH, results)
    append_history(HISTORY_PATH, results)

    report(
        format_table(
            ("Metric", "Value"),
            [
                ["triples", len(store)],
                ["delta triples (1%)", int(delta.shape[0])],
                ["first materialization s", round(first_s, 2)],
                ["full refit s", round(refit_s, 2)],
                ["incremental run s", round(incremental_s, 2)],
                ["incremental speedup", round(speedup, 2)],
            ]
            + [
                [
                    f"{shape} mean q-err (incremental / refit)",
                    f"{p['incremental_mean_qerr']} / "
                    f"{p['refit_mean_qerr']}",
                ]
                for shape, p in sorted(parity.items())
            ],
            title=(
                "Incremental maintenance — 1% delta on "
                f"{len(store)} triples -> {RESULT_PATH.name}"
            ),
        )
    )

    # The acceptance gates of the maintenance subsystem.
    assert speedup >= 5.0, (
        f"incremental maintenance {speedup:.2f}x < 5x the full refit "
        f"({incremental_s:.2f}s vs {refit_s:.2f}s)"
    )
    for shape, p in parity.items():
        assert (
            p["incremental_mean_qerr"]
            <= p["refit_mean_qerr"] * 2.0
        ), (
            f"incremental model lost accuracy parity on {shape}: mean "
            f"q-error {p['incremental_mean_qerr']} vs refit "
            f"{p['refit_mean_qerr']} (tolerance 2x)"
        )
