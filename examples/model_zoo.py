"""Model zoo: compare every estimator on one workload.

Reproduces, in miniature, the competitor comparison of §VIII-B: trains
LMKG-S, LMKG-U, and MSCN, builds the summary/sampling baselines, and
prints an accuracy/latency/memory scorecard for star and chain queries
over the SWDF-like dataset.

Run:  python examples/model_zoo.py
"""

import time

from repro import (
    LMKG,
    LMKGSConfig,
    LMKGUConfig,
    load_dataset,
    summarize,
)
from repro.baselines import (
    CharacteristicSets,
    Impr,
    IndependenceEstimator,
    JSUB,
    MSCN,
    MSCNConfig,
    SumRDF,
    WanderJoin,
)
from repro.sampling import generate_test_queries, generate_workload


def main() -> None:
    store = load_dataset("swdf", scale=0.5)
    print(
        f"SWDF-like graph: {store.num_triples} triples, "
        f"{store.num_nodes} entities, {store.num_predicates} predicates"
    )

    size = 2
    train = (
        generate_workload(store, "star", size, 500, seed=1).records
        + generate_workload(store, "chain", size, 500, seed=2).records
    )
    tests = {
        "star": generate_test_queries(store, "star", size, 8, seed=11),
        "chain": generate_test_queries(store, "chain", size, 8, seed=12),
    }

    print("Training learned estimators ...")
    lmkg_s = LMKG(
        store,
        grouping="size",
        lmkgs_config=LMKGSConfig(hidden_sizes=(128, 128), epochs=40),
    )
    lmkg_s.fit(shapes=[("star", size), ("chain", size)], workload=train)

    lmkg_u = {
        topology: _train_lmkg_u(store, topology, size)
        for topology in ("star", "chain")
    }

    mscn = MSCN(store, size, MSCNConfig(num_samples=200, epochs=40))
    mscn.fit(train)

    estimators = {
        "impr": Impr(store, walks_per_run=50, runs=10).estimate,
        "jsub": JSUB(store, walks_per_run=50, runs=10).estimate,
        "sumrdf": SumRDF(store).estimate,
        "wj": WanderJoin(store, walks_per_run=50, runs=10).estimate,
        "cset": CharacteristicSets(store).estimate,
        "indep": IndependenceEstimator(store).estimate,
        "mscn": mscn.estimate,
        "lmkg-u": lambda q, z=lmkg_u: z[
            "star" if q.is_star() else "chain"
        ].estimate(q),
        "lmkg-s": lmkg_s.estimate,
    }

    header = (
        f"{'estimator':>9} {'topology':>8} {'gmean':>8} "
        f"{'median':>8} {'p90':>10} {'ms/query':>9}"
    )
    print("\n" + header)
    print("-" * len(header))
    for name, estimate in estimators.items():
        for topology, workload in tests.items():
            start = time.perf_counter()
            values = [estimate(r.query) for r in workload]
            millis = (
                (time.perf_counter() - start) * 1000 / len(workload)
            )
            s = summarize(values, workload.cardinalities())
            print(
                f"{name:>9} {topology:>8} {s.geometric_mean:8.2f} "
                f"{s.median:8.2f} {s.p90:10.2f} {millis:9.2f}"
            )


def _train_lmkg_u(store, topology, size):
    from repro.core.lmkg_u import LMKGU

    model = LMKGU(
        store,
        topology,
        size,
        LMKGUConfig(
            hidden_sizes=(128, 128),
            epochs=4,
            training_samples=8_000,
            particles=128,
        ),
    )
    model.fit()
    return model


if __name__ == "__main__":
    main()
