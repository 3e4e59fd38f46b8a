"""Workload shift: the execution-phase adaptation loop of §IV.

The paper's framework overview says that when "a change in the workload
of queries is detected during the execution phase, a new model may be
created, or an existing model may be dropped."  This example plays that
scenario end to end:

1. train LMKG-S for a star-only workload (the assumed initial usage),
2. serve a first phase of star queries — the monitor stays quiet,
3. shift the workload to chain queries — the monitor detects the drift
   (total-variation distance over a sliding window of query shapes),
   cold-starts a chain model, and drops the now-unused star model,
4. print the adaptation log and the estimator's accuracy before/after.

Run from the repository root::

    PYTHONPATH=src:benchmarks python benchmarks/ext/examples/workload_shift.py
"""

from ext.monitor import AdaptiveLMKG, WorkloadMonitor
from repro import LMKG, LMKGSConfig, load_dataset, q_error
from repro.sampling import generate_workload


def serve(adaptive, records, label):
    """Feed queries through the adaptive estimator; report accuracy."""
    errors = []
    for record in records:
        estimate = adaptive.estimate(record.query)
        errors.append(q_error(estimate, record.cardinality))
    mean = sum(errors) / len(errors)
    print(
        f"  {label}: served {len(records)} queries, "
        f"mean q-error {mean:.2f}"
    )


def main() -> None:
    print("Loading the LUBM-like knowledge graph ...")
    store = load_dataset("lubm", scale=0.5)

    print("\nCreation phase: star-only models (the assumed workload) ...")
    framework = LMKG(
        store,
        model_type="supervised",
        grouping="specialized",
        lmkgs_config=LMKGSConfig(hidden_sizes=(64, 64), epochs=30),
    )
    framework.fit(shapes=[("star", 2)], queries_per_shape=400)

    monitor = WorkloadMonitor(
        window_size=200, threshold=0.4, min_queries=30, hot_share=0.3
    )
    adaptive = AdaptiveLMKG(framework, monitor, queries_per_shape=400)
    print(f"  reference workload: {monitor.reference}")

    print("\nExecution phase 1: the star workload the models expect ...")
    stars = generate_workload(
        store, "star", 2, num_queries=60, seed=11
    ).records
    serve(adaptive, stars, "stars")
    print(f"  adaptations so far: {len(adaptive.events)} (expected 0)")

    print("\nExecution phase 2: the workload shifts to chain queries ...")
    chains = generate_workload(
        store, "chain", 2, num_queries=120, seed=22
    ).records
    serve(adaptive, chains[:60], "chains (first batch)")
    # Keep serving chains: the drifted reference re-centres, star usage
    # fades below the cold threshold, and the star model is dropped.
    serve(adaptive, chains[60:], "chains (second batch)")

    print("\nAdaptation log:")
    for shape in adaptive.cold_starts:
        print(f"  cold-start fit for shape {shape}")
    for event in adaptive.events:
        print(
            f"  drift (TV distance {event.report.distance:.2f}): "
            f"added {list(event.added) or '[]'}, "
            f"dropped {list(event.dropped) or '[]'}"
        )
    covered = sorted(framework.models.keys())
    print(f"  models now: {covered}")


if __name__ == "__main__":
    main()
