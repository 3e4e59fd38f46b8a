"""Extension bench: the Huang & Liu [14] baseline the paper cites.

The related work (§II) describes combining Bayesian networks for star
patterns with a chain histogram for chain patterns.  G-CARE does not
ship that estimator, so the paper never measures it; this bench adds it
to the comparison.  Expected shape: the BN beats the independence
assumption (it models predicate correlation) but still trails the
learned LMKG models, which capture higher-order term correlations.
"""

import numpy as np

from ext.bayesnet import BayesNetEstimator
from repro.bench import get_context
from repro.bench.reporting import format_table
from repro.core.metrics import summarize

ESTIMATORS = ("bayesnet", "indep", "cset", "lmkg-s")


def test_ext_bayesnet(benchmark, report):
    ctx = get_context("swdf")
    size = ctx.profile.query_sizes[0]
    bayesnet = BayesNetEstimator(ctx.store)

    def evaluate(name, workload):
        if name != "bayesnet":
            return ctx.evaluate(name, workload)
        estimates = bayesnet.estimate_batch([r.query for r in workload])
        return summarize(estimates, workload.cardinalities())

    def run():
        rows = []
        star_means = {}
        for name in ESTIMATORS:
            per_topology = []
            for topology in ("star", "chain"):
                workload = ctx.test_workload(topology, size)
                summary = evaluate(name, workload)
                per_topology.append(summary.mean)
            star_means[name] = per_topology[0]
            rows.append(
                (
                    name,
                    round(per_topology[0], 2),
                    round(per_topology[1], 2),
                    round(float(np.mean(per_topology)), 2),
                )
            )
        return rows, star_means

    rows, star_means = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ("estimator", "star mean q-err", "chain mean q-err", "overall"),
            rows,
            title=(
                "Extension — Huang & Liu BN+chain-histogram vs paper "
                f"estimators (SWDF, size {size})"
            ),
        )
    )
    # Shape: on star queries — the part the Bayesian network models —
    # capturing predicate correlation must beat assuming independence.
    # (The first-order chain histogram struggles with bound endpoints on
    # skewed data, which is exactly why the paper argues for learned
    # models there; no claim is asserted for chains.)
    assert star_means["bayesnet"] <= star_means["indep"] * 1.05
