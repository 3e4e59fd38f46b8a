"""Range queries: the encoding extension §IV leaves as future work.

The paper restricts LMKG to term equality and notes: "For cardinality
estimation of range queries, one could modify the input encoding with
histogram selectivity values."  This example builds that extension:

1. load a knowledge graph and construct per-predicate equi-depth
   histograms over object values,
2. generate star queries whose objects carry inclusive range filters
   (the RDF idiom for FILTER(?v >= lo && ?v <= hi)), labelled exactly,
3. train LMKGS-Range — LMKG-S with one histogram-selectivity input slot
   per triple — and compare it against the pure-histogram baseline a
   traditional optimizer would use.

Run from the repository root::

    PYTHONPATH=src:benchmarks python benchmarks/ext/examples/range_queries.py
"""

import numpy as np

from ext.ranges import (
    HistogramRangeEstimator,
    LMKGSRange,
    generate_range_workload,
)
from repro import LMKGSConfig, load_dataset
from repro.core.metrics import q_errors, summarize


def main() -> None:
    print("Loading the SWDF-like knowledge graph ...")
    store = load_dataset("swdf", scale=0.5)

    print("\nGenerating labelled range-query workloads ...")
    train = generate_range_workload(
        store, "star", 3, num_queries=800, seed=1
    )
    test = generate_range_workload(
        store, "star", 3, num_queries=150, seed=99
    )
    constrained = sum(1 for r in test if r.query.constraints)
    print(
        f"  train {len(train)} / test {len(test)} queries "
        f"({constrained} of the test queries carry range filters)"
    )

    print("\nTraining LMKGS-Range (selectivity-augmented encoding) ...")
    model = LMKGSRange(
        store,
        ["star"],
        3,
        LMKGSConfig(hidden_sizes=(128, 128), epochs=100),
    )
    model.fit(train)

    print("Building the histogram-only baseline ...")
    baseline = HistogramRangeEstimator(store)

    truths = [r.cardinality for r in test]
    for name, estimator in (
        ("lmkgs-range", model),
        ("histogram", baseline),
    ):
        estimates = [estimator.estimate(r.query) for r in test]
        summary = summarize(estimates, truths)
        print(
            f"  {name:<12} mean q-error {summary.mean:8.2f}   "
            f"median {summary.median:6.2f}   max {summary.max:8.2f}"
        )

    # Show a couple of concrete queries.
    print("\nSample estimates (truth vs model vs histogram):")
    for record in [r for r in test if r.query.constraints][:5]:
        constraint = record.query.constraints[0]
        print(
            f"  size-3 star, object in [{constraint.low}, "
            f"{constraint.high}]: true {record.cardinality:>6}  "
            f"lmkgs-range {model.estimate(record.query):8.1f}  "
            f"histogram {baseline.estimate(record.query):8.1f}"
        )


if __name__ == "__main__":
    main()
