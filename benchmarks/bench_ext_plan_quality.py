"""Extension bench: plan quality under learned vs naive cardinalities.

The paper's §I motivation — "producing efficient query plans heavily
relies on accurate cardinality estimates" — made measurable in the style
of Leis et al. (VLDB 2015): plan every test query with each estimator,
then charge each chosen join order its *true* C_out and compare against
the true-optimal order.  The learned model's lower q-error should
translate into more optimal plans and lower plan regret than the
independence assumption.
"""

from ext.bayesnet import BayesNetEstimator
from ext.optimizer import plan_quality
from repro.baselines import CharacteristicSets, IndependenceEstimator
from repro.bench import get_context
from repro.bench.reporting import format_table


def test_ext_plan_quality(benchmark, report):
    ctx = get_context("lubm")
    size = max(s for s in ctx.profile.query_sizes if s <= 4)
    queries = [
        r.query
        for topology in ("star", "chain")
        for r in ctx.test_workload(topology, size).records[:20]
    ]

    def run():
        lmkg = ctx.lmkg_s()

        class _Lmkg:
            name = "lmkg-s"

            def estimate(self, query):
                return lmkg.estimate(query)

        estimators = [
            _Lmkg(),
            BayesNetEstimator(ctx.store),
            CharacteristicSets(ctx.store),
            IndependenceEstimator(ctx.store),
        ]
        rows = []
        reports = {}
        for estimator in estimators:
            quality = plan_quality(ctx.store, estimator, queries)
            reports[estimator.name] = quality
            rows.append(
                (
                    estimator.name,
                    f"{quality.fraction_optimal:.1%}",
                    round(quality.mean_suboptimality, 3),
                    round(quality.percentile(95), 3),
                    round(quality.max_suboptimality, 3),
                )
            )
        return rows, reports

    rows, reports = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            (
                "estimator",
                "optimal plans",
                "mean subopt",
                "p95 subopt",
                "max subopt",
            ),
            rows,
            title=(
                "Extension — join-order quality, true C_out of chosen vs "
                f"optimal plan (LUBM, star+chain size {size})"
            ),
        )
    )
    # Shape assertion: the learned estimator should plan at least as
    # well as the independence assumption on mean regret.
    assert (
        reports["lmkg-s"].mean_suboptimality
        <= reports["indep"].mean_suboptimality + 1e-9
    )
