"""Extension bench: the compound S+U estimator of §VII-B's future work.

The paper argues a combination of LMKG-S and LMKG-U "may be the
preferred approach" when both skewed stars and rare-term chains occur.
This bench builds the compound (geometric / router / validated policies)
over the paper's two models and compares all five estimators on a mixed
star+chain workload.
"""

import numpy as np

from ext.compound import CompoundEstimator
from repro.bench import get_context
from repro.bench.reporting import format_table
from repro.core.metrics import summarize


def test_ext_compound(benchmark, report):
    ctx = get_context("lubm")
    size = ctx.profile.query_sizes[0]
    workloads = {
        topology: ctx.test_workload(topology, size)
        for topology in ("star", "chain")
    }

    def run():
        supervised = ctx.lmkg_s()

        class _U:
            """Routes each query to the per-shape LMKG-U model."""

            def estimate(inner, query):
                topology = query.topology().value
                return ctx.lmkg_u(topology, size).estimate(query)

        unsupervised = _U()
        validation = [
            r
            for topology in ("star", "chain")
            for r in ctx.train_workload(topology, size).records[:30]
        ]
        estimators = {
            "lmkg-s": supervised,
            "lmkg-u": unsupervised,
            "compound-geo": CompoundEstimator(
                supervised, unsupervised, policy="geometric"
            ),
            "compound-route": CompoundEstimator(
                supervised, unsupervised, policy="router"
            ),
            "compound-valid": CompoundEstimator(
                supervised,
                unsupervised,
                policy="validated",
                validation=validation,
            ),
        }
        rows = []
        means = {}
        for name, estimator in estimators.items():
            per_topology = {}
            for topology, workload in workloads.items():
                estimates = [
                    estimator.estimate(r.query) for r in workload
                ]
                summary = summarize(
                    estimates, [r.cardinality for r in workload]
                )
                per_topology[topology] = summary.mean
            means[name] = float(np.mean(list(per_topology.values())))
            rows.append(
                (
                    name,
                    round(per_topology["star"], 2),
                    round(per_topology["chain"], 2),
                    round(means[name], 2),
                )
            )
        return rows, means

    rows, means = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ("estimator", "star mean q-err", "chain mean q-err", "overall"),
            rows,
            title=(
                "Extension — compound LMKG-S + LMKG-U (§VII-B future "
                f"work), LUBM size {size}"
            ),
        )
    )
    # Shape: the best compound policy should not be worse than the worse
    # of its two constituents — combining cannot lose to the weaker model.
    best_compound = min(
        means["compound-geo"], means["compound-route"], means["compound-valid"]
    )
    worst_single = max(means["lmkg-s"], means["lmkg-u"])
    assert best_compound <= worst_single * 1.05
