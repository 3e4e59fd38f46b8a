"""Extension bench: one autoregressive model for all shapes (§II NeuroCard).

The paper defers "deeper investigation" of NeuroCard-style single-model
estimation on KGs to future work; this bench carries out the comparison
its §VII-B grouping analysis predicts.  A single UniversalLMKGU over
{star-2, chain-2} — shape column + padded tail, union universe — against
the per-shape LMKG-U models at the same *total* training-sample budget.

Expected shape: the single model needs less memory than the two
specialised models combined, at some accuracy cost (the §VII-B
"single learned model" row: "suitable for small memory budgets …
may produce lower accuracy").
"""

import numpy as np

from ext.lmkg_u_universal import UniversalLMKGU
from repro.bench import get_context
from repro.bench.reporting import format_bytes, format_table
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.core.metrics import summarize


def test_ext_universal_u(benchmark, report):
    ctx = get_context("lubm")
    size = ctx.profile.query_sizes[0]
    shapes = [("star", size), ("chain", size)]
    workloads = {
        topology: ctx.test_workload(topology, size)
        for topology, _ in shapes
    }
    total_budget = ctx.profile.lmkgu_samples * len(shapes)

    def run():
        universal = UniversalLMKGU(
            ctx.store,
            shapes,
            LMKGUConfig(
                embed_dim=16,
                hidden_sizes=ctx.profile.lmkgu_hidden,
                epochs=ctx.profile.lmkgu_epochs * 2,
                training_samples=total_budget,
                particles=ctx.profile.lmkgu_particles,
                seed=0,
            ),
        )
        universal.fit()
        per_shape = {}
        per_shape_memory = 0
        for topology, shape_size in shapes:
            model = LMKGU(
                ctx.store,
                topology,
                shape_size,
                LMKGUConfig(
                    embed_dim=16,
                    hidden_sizes=ctx.profile.lmkgu_hidden,
                    epochs=ctx.profile.lmkgu_epochs * 2,
                    training_samples=total_budget // len(shapes),
                    particles=ctx.profile.lmkgu_particles,
                    seed=0,
                ),
            )
            model.fit()
            per_shape[topology] = model
            # Paper-facing float32 size: state-independent, unlike the
            # in-process memory_bytes() footprint.
            per_shape_memory += model.checkpoint_bytes()
        rows = []
        stats = {}
        for name in ("universal", "per-shape"):
            means = {}
            for topology, workload in workloads.items():
                model = (
                    universal
                    if name == "universal"
                    else per_shape[topology]
                )
                estimates = [
                    model.estimate(r.query) for r in workload
                ]
                means[topology] = summarize(
                    estimates, [r.cardinality for r in workload]
                ).mean
            memory = (
                universal.checkpoint_bytes()
                if name == "universal"
                else per_shape_memory
            )
            stats[name] = {"means": means, "memory": memory}
            rows.append(
                (
                    name,
                    round(means["star"], 2),
                    round(means["chain"], 2),
                    format_bytes(memory),
                )
            )
        return rows, stats

    rows, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ("model", "star mean q-err", "chain mean q-err", "memory"),
            rows,
            title=(
                "Extension — single universal LMKG-U vs per-shape "
                f"models (LUBM size {size}, equal total sample budget)"
            ),
        )
    )
    # Shape: §VII-B's single-model trade — strictly less memory than the
    # specialised models combined.
    assert (
        stats["universal"]["memory"] < stats["per-shape"]["memory"]
    )