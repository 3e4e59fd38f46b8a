"""Impr: graphlet-count estimation by random walks (Chen & Lui, ICDM
2016), adapted for labelled subgraph cardinality as in G-CARE.

The original estimates *unlabelled* graphlet counts on online social
networks by random walks with re-weighting.  The G-CARE adaptation (which
the paper evaluates) estimates the number of embeddings of the query's
*topology*, scaled by the fraction of sampled embeddings whose labels
match the query's bound terms:

1. random-walk sample subgraphs with the query's shape, tracking each
   sample's inclusion probability (product of the inverse degrees along
   the walk),
2. Horvitz-Thompson: the mean of ``match_indicator / probability`` over
   samples estimates the labelled-embedding count.

The estimator is known (and shown in the paper) to degrade sharply for
selective labelled queries — most sampled embeddings miss the bound
terms, so the indicator is almost always zero.  Reproducing that failure
mode is the point of including it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import Variable, is_bound


class Impr(Estimator):
    """Random-walk graphlet estimator with label-matching correction."""

    name = "impr"

    def __init__(
        self,
        store: TripleStore,
        walks_per_run: int = 100,
        runs: int = 30,
        seed: int = 0,
    ) -> None:
        self.store = store
        self.walks_per_run = walks_per_run
        self.runs = runs
        self._rng = np.random.default_rng(seed)
        self._nodes = store.nodes()

    def _estimate_one(self, query: QueryPattern) -> float:
        topo = query.topology()
        if topo not in (Topology.STAR, Topology.CHAIN, Topology.SINGLE):
            # The walk templates below cover the paper's two topologies.
            topo = Topology.CHAIN
        estimates = [
            self._run_once(query, topo) for _ in range(self.runs)
        ]
        return float(np.mean(estimates))

    def _run_once(self, query: QueryPattern, topo: Topology) -> float:
        total = 0.0
        for _ in range(self.walks_per_run):
            sample = self._sample_embedding(query, topo)
            if sample is None:
                continue
            probability, triples = sample
            if self._matches(query, triples):
                total += 1.0 / probability
        return total / self.walks_per_run

    def _sample_embedding(
        self, query: QueryPattern, topo: Topology
    ) -> Optional[Tuple[float, List[Tuple[int, int, int]]]]:
        """Sample a shape embedding; returns (probability, triples)."""
        size = query.size
        n = len(self._nodes)
        start = self._nodes[int(self._rng.integers(n))]
        probability = 1.0 / n
        triples: List[Tuple[int, int, int]] = []
        backend = self.store.backend
        if topo is Topology.STAR:
            preds, objs = backend.out_slice(start)
            degree = int(preds.size)
            if degree == 0:
                return None
            for _ in range(size):
                pick = int(self._rng.integers(degree))
                probability *= 1.0 / degree
                triples.append(
                    (start, int(preds[pick]), int(objs[pick]))
                )
        else:
            node = start
            for _ in range(size):
                preds, objs = backend.out_slice(node)
                degree = int(preds.size)
                if degree == 0:
                    return None
                pick = int(self._rng.integers(degree))
                probability *= 1.0 / degree
                o = int(objs[pick])
                triples.append((node, int(preds[pick]), o))
                node = o
        return probability, triples

    @staticmethod
    def _matches(
        query: QueryPattern, triples: List[Tuple[int, int, int]]
    ) -> bool:
        """Do the sampled triples satisfy the query's bound terms?

        Variables must also bind consistently across the sampled triples.
        """
        bindings = {}
        for tp, triple in zip(query.triples, triples):
            for term, value in zip(tp, triple):
                if isinstance(term, Variable):
                    bound = bindings.get(term)
                    if bound is None:
                        bindings[term] = value
                    elif bound != value:
                        return False
                elif term != value:
                    return False
        return True
