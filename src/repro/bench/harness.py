"""Shared benchmark harness: builds, trains, and caches every estimator.

One :class:`BenchContext` per dataset holds the store, the labelled
workloads, and the trained models; contexts are memoised at module level
so the bench files (one per table/figure) reuse each other's training
work within a pytest session.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from repro.bench.profiles import BenchProfile, active_profile
from repro.core.framework import LMKG
from repro.core.lmkg_s import LMKGSConfig
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.core.metrics import AccuracySummary, summarize
from repro.datasets import load_dataset
from repro.rdf.store import TripleStore
from repro.sampling import (
    QueryRecord,
    Workload,
    generate_test_queries,
    generate_workload,
)

#: estimator display order, matching the paper's legends
ESTIMATOR_ORDER = (
    "impr",
    "jsub",
    "sumrdf",
    "wj",
    "cset",
    "mscn-0",
    "mscn-1k",
    "lmkg-u",
    "lmkg-s",
)


class BenchContext:
    """All evaluation state for one dataset under one profile."""

    def __init__(self, dataset: str, profile: BenchProfile) -> None:
        self.dataset = dataset
        self.profile = profile
        self.store: TripleStore = load_dataset(
            dataset, scale=profile.dataset_scale, seed=0
        )
        self._test_workloads: Dict[Tuple[str, int], Workload] = {}
        self._train_workloads: Dict[Tuple[str, int], Workload] = {}
        self._lmkg_s: Optional[LMKG] = None
        self._lmkg_u: Dict[Tuple[str, int], LMKGU] = {}
        self._baselines: Dict[str, object] = {}
        self._mscn: Dict[int, MSCN] = {}

    # ------------------------------------------------------------------
    # Feasible query sizes
    # ------------------------------------------------------------------

    def sizes_for(self, topology: str) -> Tuple[int, ...]:
        """Profile query sizes that actually exist in this dataset.

        A chain of length k requires directed walks of that length; a
        dataset whose schema has bounded depth (LUBM's org hierarchy)
        cannot host arbitrarily long chains, so sizes whose instance
        universe is too small to sample from are dropped.  The bench
        output marks such cells as absent.
        """
        key = f"_sizes_{topology}"
        cached = getattr(self, key, None)
        if cached is not None:
            return cached
        from repro.sampling import (
            count_chain_instances,
            count_star_instances,
        )

        counter = (
            count_star_instances
            if topology == "star"
            else count_chain_instances
        )
        feasible = tuple(
            size
            for size in self.profile.query_sizes
            if counter(self.store, size) >= 100
        )
        setattr(self, key, feasible)
        return feasible

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------

    def test_workload(self, topology: str, size: int) -> Workload:
        key = (topology, size)
        if key not in self._test_workloads:
            self._test_workloads[key] = generate_test_queries(
                self.store,
                topology,
                size,
                per_bucket=self.profile.per_bucket,
                seed=5000 + 13 * size + (7 if topology == "star" else 0),
            )
        return self._test_workloads[key]

    def train_workload(self, topology: str, size: int) -> Workload:
        key = (topology, size)
        if key not in self._train_workloads:
            self._train_workloads[key] = generate_workload(
                self.store,
                topology,
                size,
                num_queries=self.profile.train_queries_per_shape,
                seed=100 + 13 * size + (7 if topology == "star" else 0),
            )
        return self._train_workloads[key]

    def training_records(
        self, sizes: Optional[Sequence[int]] = None
    ) -> List[QueryRecord]:
        sizes = tuple(sizes or self.profile.query_sizes)
        records: List[QueryRecord] = []
        for topology in ("star", "chain"):
            feasible = set(self.sizes_for(topology))
            for size in sizes:
                if size not in feasible:
                    continue
                records.extend(self.train_workload(topology, size).records)
        return records

    # ------------------------------------------------------------------
    # Learned models
    # ------------------------------------------------------------------

    def lmkg_s(self) -> LMKG:
        """The paper's comparison configuration: SG-Encoding + size
        grouping, one compound model set per dataset."""
        if self._lmkg_s is None:
            framework = LMKG(
                self.store,
                model_type="supervised",
                grouping="size",
                lmkgs_config=LMKGSConfig(
                    hidden_sizes=self.profile.lmkgs_hidden,
                    epochs=self.profile.lmkgs_epochs,
                    seed=0,
                ),
            )
            framework.fit(
                shapes=[
                    (topo, size)
                    for topo in ("star", "chain")
                    for size in self.sizes_for(topo)
                ],
                workload=self.training_records(),
            )
            self._lmkg_s = framework
        return self._lmkg_s

    def lmkg_u(self, topology: str, size: int) -> LMKGU:
        key = (topology, size)
        if key not in self._lmkg_u:
            model = LMKGU(
                self.store,
                topology,
                size,
                LMKGUConfig(
                    embed_dim=32,
                    hidden_sizes=self.profile.lmkgu_hidden,
                    epochs=self.profile.lmkgu_epochs,
                    training_samples=self.profile.lmkgu_samples,
                    particles=self.profile.lmkgu_particles,
                    seed=0,
                ),
            )
            model.fit()
            self._lmkg_u[key] = model
        return self._lmkg_u[key]

    def lmkg_u_available(self) -> bool:
        """The paper drops LMKG-U for YAGO (huge unique-term domain)."""
        return self.dataset != "yago"

    def mscn(self, num_samples: int) -> MSCN:
        if num_samples not in self._mscn:
            model = MSCN(
                self.store,
                max_size=max(self.profile.query_sizes),
                config=MSCNConfig(
                    num_samples=num_samples,
                    epochs=self.profile.mscn_epochs,
                    seed=0,
                ),
            )
            model.fit(self.training_records())
            self._mscn[num_samples] = model
        return self._mscn[num_samples]

    def baseline(self, name: str):
        if name not in self._baselines:
            p = self.profile
            builders = {
                "cset": lambda: CharacteristicSets(self.store),
                "sumrdf": lambda: SumRDF(self.store, target_buckets=256),
                "indep": lambda: IndependenceEstimator(self.store),
                "wj": lambda: WanderJoin(
                    self.store, p.walks_per_run, p.sampling_runs, seed=1
                ),
                "jsub": lambda: JSUB(
                    self.store, p.walks_per_run, p.sampling_runs, seed=2
                ),
                "impr": lambda: Impr(
                    self.store, p.walks_per_run, p.sampling_runs, seed=3
                ),
            }
            self._baselines[name] = builders[name]()
        return self._baselines[name]

    # ------------------------------------------------------------------
    # Uniform estimation API
    # ------------------------------------------------------------------

    def estimator_for(self, name: str, workload: Workload):
        """Resolve an estimator name to its (trained) Estimator.

        Every estimator in the evaluation — the LMKG façade, the MSCN
        variants, and the synopsis/sampling baselines — speaks the
        unified :class:`~repro.core.estimator.Estimator` protocol, so
        callers need the *workload* only here, for the models that are
        trained per (topology, size).
        """
        contextual = {
            "lmkg-s": self.lmkg_s,
            "lmkg-u": lambda: self.lmkg_u(
                workload.topology, workload.size
            ),
            "mscn-0": lambda: self.mscn(0),
            "mscn-1k": lambda: self.mscn(self.profile.mscn_big_samples),
        }
        builder = contextual.get(name)
        if builder is not None:
            return builder()
        return self.baseline(name)

    def estimate_all(
        self, estimator: str, workload: Workload
    ) -> np.ndarray:
        """Estimates of one named estimator over a workload.

        One ``estimate_batch`` call through the Estimator protocol:
        learned estimators run their vectorized path (one featurize +
        one forward per model), the sampling/synopsis baselines loop via
        the shared per-query fallback — the harness no longer cares
        which is which.
        """
        queries = [r.query for r in workload]
        return self.estimator_for(estimator, workload).estimate_batch(
            queries
        )

    def evaluate(
        self, estimator: str, workload: Workload
    ) -> AccuracySummary:
        estimates = self.estimate_all(estimator, workload)
        return summarize(estimates, workload.cardinalities())

    def timed_estimates(
        self, estimator: str, workload: Workload
    ) -> Tuple[np.ndarray, float]:
        """(estimates, mean milliseconds per query)."""
        start = time.perf_counter()
        estimates = self.estimate_all(estimator, workload)
        elapsed = time.perf_counter() - start
        return estimates, elapsed * 1000.0 / max(len(workload), 1)

    def estimators(self) -> List[str]:
        """The paper's competitor set, respecting the YAGO exclusion."""
        names = list(ESTIMATOR_ORDER)
        if not self.lmkg_u_available():
            names.remove("lmkg-u")
        return names


def build_throughput_store(
    num_triples: int = 100_000, seed: int = 0
) -> TripleStore:
    """A synthetic hub-heavy graph of roughly *num_triples* triples.

    Used by ``bench_store_throughput`` (the ``BENCH_store.json``
    producer): the SWDF-like generator is scaled so star/chain workloads
    at the bench sizes are dense enough to label.
    """
    from repro.datasets.swdf import generate_swdf

    # The SWDF generator yields ~1.2k triples per conference at the
    # default paper density.
    scale = max(num_triples / 14_600.0, 0.2)
    return generate_swdf(
        conferences=max(2, int(12 * scale)),
        papers_per_conference=110,
        people_pool=max(50, int(900 * scale)),
        seed=seed,
    )


_contexts: Dict[Tuple[str, str], BenchContext] = {}


def get_context(dataset: str) -> BenchContext:
    """Memoised per-dataset context under the active profile."""
    profile = active_profile()
    key = (dataset, profile.name)
    if key not in _contexts:
        _contexts[key] = BenchContext(dataset, profile)
    return _contexts[key]
