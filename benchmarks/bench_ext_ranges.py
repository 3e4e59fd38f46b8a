"""Extension bench: range queries via histogram-selectivity encoding.

§IV's future-work sentence — "modify the input encoding with histogram
selectivity values" — implemented and measured.  LMKGS-Range (the
supervised model with one log-selectivity slot per triple) against the
traditional per-predicate-histogram baseline, on size-3 star queries
with random inclusive object ranges.  Expected shape: at this join
count the learned model's correlation handling beats the independence-
times-selectivity estimate, mirroring the equality-query result.
"""

from ext.ranges import (
    HistogramRangeEstimator,
    LMKGSRange,
    generate_range_workload,
)
from repro.bench import get_context
from repro.bench.reporting import format_table
from repro.core.lmkg_s import LMKGSConfig
from repro.core.metrics import summarize


def test_ext_ranges(benchmark, report):
    ctx = get_context("swdf")
    size = 3
    # LMKG-S needs a solid sample here: with fewer training queries the
    # tail (the paper's Fig. 9 outlier weakness) dominates the mean.
    train = generate_range_workload(
        ctx.store,
        "star",
        size,
        num_queries=max(ctx.profile.train_queries_per_shape, 1_200),
        seed=1,
    )
    test = generate_range_workload(
        ctx.store, "star", size, num_queries=120, seed=99
    )
    truths = [r.cardinality for r in test]

    def run():
        model = LMKGSRange(
            ctx.store,
            ["star"],
            size,
            LMKGSConfig(
                hidden_sizes=ctx.profile.lmkgs_hidden,
                epochs=max(ctx.profile.lmkgs_epochs * 2, 120),
                seed=0,
            ),
        )
        model.fit(train)
        baseline = HistogramRangeEstimator(ctx.store)
        rows = []
        means = {}
        for name, estimator in (
            ("lmkgs-range", model),
            ("histogram", baseline),
        ):
            estimates = [estimator.estimate(r.query) for r in test]
            summary = summarize(estimates, truths)
            means[name] = summary.mean
            rows.append(
                (
                    name,
                    round(summary.mean, 2),
                    round(summary.median, 2),
                    round(summary.p90, 2),
                    round(summary.max, 2),
                )
            )
        return rows, means

    rows, means = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ("estimator", "mean q-err", "median", "p90", "max"),
            rows,
            title=(
                "Extension — range queries, selectivity-augmented "
                f"LMKG-S vs histograms (SWDF star size {size})"
            ),
        )
    )
    # Shape: with 3 joins the learned model's correlation handling wins.
    assert means["lmkgs-range"] <= means["histogram"] * 1.15
