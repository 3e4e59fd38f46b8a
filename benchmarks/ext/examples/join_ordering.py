"""Join ordering with learned cardinalities — the paper's motivating
application (§I: "producing efficient query plans heavily relies on
accurate cardinality estimates").

Uses the :mod:`ext.optimizer` subsystem: plans 3-triple star queries
with three cardinality sources — the exact-count oracle, LMKG-S, and
the independence assumption — and compares the *true* C_out of each
chosen join order (the methodology of "How good are query optimizers,
really?", Leis et al., VLDB 2015).  One plan is also executed to show
the measured intermediates matching the oracle's prediction.

Run from the repository root::

    PYTHONPATH=src:benchmarks python benchmarks/ext/examples/join_ordering.py
"""

from ext.optimizer import (
    Optimizer,
    cout_cost,
    execute_order,
    plan_quality,
    true_cost_fn,
)
from repro import LMKG, LMKGSConfig, load_dataset
from repro.baselines import IndependenceEstimator
from repro.sampling import generate_workload


def main() -> None:
    store = load_dataset("lubm", scale=0.5)
    print("Training LMKG-S ...")
    framework = LMKG(
        store,
        grouping="size",
        lmkgs_config=LMKGSConfig(hidden_sizes=(128, 128), epochs=40),
    )
    framework.fit(
        shapes=[("star", 2), ("star", 3), ("chain", 2), ("chain", 3)],
        queries_per_shape=500,
    )

    class LearnedEstimator:
        """Adapter giving the framework the estimator protocol."""

        name = "lmkg-s"

        def estimate(self, query):
            return framework.estimate(query)

    print("\nPlan quality on 3-triple star queries ...\n")
    workload = generate_workload(store, "star", 3, 25, seed=555)
    queries = [record.query for record in workload]
    for estimator in (LearnedEstimator(), IndependenceEstimator(store)):
        report = plan_quality(store, estimator, queries)
        print(f"  {report.summary_row()}")

    print("\nOne query in detail:")
    query = queries[0]
    oracle = true_cost_fn(store)
    learned_plan = Optimizer(LearnedEstimator()).optimize(query)
    oracle_plan = Optimizer(oracle).optimize(query)
    print(f"  learned picks order  {learned_plan.order}")
    print(f"  oracle picks order   {oracle_plan.order}")
    print(
        f"  true C_out           learned "
        f"{cout_cost(query, learned_plan.order, oracle):.0f}, "
        f"optimal {oracle_plan.cost:.0f}"
    )
    execution = execute_order(store, query, learned_plan.order)
    print(
        f"  executing the learned plan: {execution.result_size} results, "
        f"{execution.probes} index probes, measured intermediates "
        f"{list(execution.intermediate_sizes)}"
    )


if __name__ == "__main__":
    main()
