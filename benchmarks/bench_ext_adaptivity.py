"""Extension bench: execution-phase adaptation under workload shift (§IV).

The framework overview allows models to be created or dropped when the
workload changes.  This bench plays a two-phase workload — stars, then
chains — against two deployments of the same initial star-only model:

- *static*: the creation-phase models never change (chain queries can
  only be answered by decomposition or fail),
- *adaptive*: the :class:`~ext.monitor.AdaptiveLMKG` loop with a
  sliding-window drift detector.

Reported: phase-2 accuracy of both deployments and the adaptation log,
persisted into ``benchmarks/results/BENCH_store.json`` under
``adaptivity``.  The shape claim: adaptation restores phase-2 accuracy
to the same order as a model trained for chains up front.
"""

from pathlib import Path

from ext.monitor import AdaptiveLMKG, WorkloadMonitor
from repro.bench import get_context
from repro.bench.reporting import format_table, merge_json

RESULT_PATH = (
    Path(__file__).parent / "results" / "BENCH_store.json"
)
from repro.core.framework import LMKG
from repro.core.lmkg_s import LMKGSConfig
from repro.core.metrics import summarize


def test_ext_adaptivity(benchmark, report):
    ctx = get_context("lubm")
    size = ctx.profile.query_sizes[0]
    stars = ctx.test_workload("star", size).records
    chains = ctx.test_workload("chain", size).records
    config = LMKGSConfig(
        hidden_sizes=ctx.profile.lmkgs_hidden,
        epochs=ctx.profile.lmkgs_epochs,
        seed=0,
    )

    def star_only_framework():
        framework = LMKG(
            ctx.store,
            model_type="supervised",
            grouping="specialized",
            lmkgs_config=config,
        )
        framework.fit(
            shapes=[("star", size)],
            queries_per_shape=ctx.profile.train_queries_per_shape,
        )
        return framework

    def run():
        # Upfront-trained reference: what a chain model can achieve.
        reference = LMKG(
            ctx.store,
            model_type="supervised",
            grouping="specialized",
            lmkgs_config=config,
        )
        reference.fit(
            shapes=[("chain", size)],
            queries_per_shape=ctx.profile.train_queries_per_shape,
        )
        adaptive = AdaptiveLMKG(
            star_only_framework(),
            WorkloadMonitor(
                window_size=200,
                threshold=0.4,
                min_queries=20,
                hot_share=0.3,
            ),
            queries_per_shape=ctx.profile.train_queries_per_shape,
        )
        # Phase 1: the expected star workload.
        for record in stars:
            adaptive.estimate(record.query)
        # Phase 2: the shifted chain workload, answered live.
        truths = [r.cardinality for r in chains]
        adaptive_estimates = [
            adaptive.estimate(r.query) for r in chains
        ]
        reference_estimates = [
            reference.estimate(r.query) for r in chains
        ]
        rows = []
        summaries = {}
        for name, estimates in (
            ("adaptive", adaptive_estimates),
            ("upfront-chain", reference_estimates),
        ):
            summary = summarize(estimates, truths)
            summaries[name] = summary
            rows.append(
                (
                    name,
                    round(summary.mean, 2),
                    round(summary.median, 2),
                    round(summary.max, 2),
                )
            )
        log = (
            f"cold starts: {adaptive.cold_starts}; "
            f"drift events: {len(adaptive.events)}"
        )
        return rows, summaries, log

    rows, summaries, log = benchmark.pedantic(run, rounds=1, iterations=1)
    merge_json(
        RESULT_PATH,
        {
            "adaptivity": {
                "dataset": "lubm",
                "size": size,
                "phase2_queries": len(chains),
                "log": log,
                **{
                    name: {
                        "mean_qerr": round(summary.mean, 2),
                        "median_qerr": round(summary.median, 2),
                        "p90_qerr": round(summary.p90, 2),
                        "max_qerr": round(summary.max, 2),
                    }
                    for name, summary in summaries.items()
                },
            }
        },
    )
    report(
        format_table(
            ("deployment", "mean q-err", "median", "max"),
            rows,
            title=(
                "Extension — phase-2 (chain) accuracy after workload "
                f"shift (LUBM size {size}); {log}"
            ),
        )
    )
    # Shape: live adaptation lands within a small factor of a model
    # trained for the shifted workload up front.
    assert (
        summaries["adaptive"].mean
        <= summaries["upfront-chain"].mean * 3.0
    )
