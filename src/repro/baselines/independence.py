"""Independence-assumption baseline: per-triple counts joined uniformly.

Not one of the paper's evaluated competitors, but the textbook
histogram-style estimator its introduction argues against; kept as the
floor every learned approach should beat and used by ablation benches.

``card ≈ prod per-triple exact counts / |node domain|^(extra occurrences
of each shared variable)`` — exact per-triple selectivities (the store's
indexes give them for free) combined under uniform join selectivity.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import Variable


class IndependenceEstimator(Estimator):
    """Per-triple histogram product with join-uniformity correction."""

    name = "indep"

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def _estimate_one(self, query: QueryPattern) -> float:
        product = 1.0
        for tp in query.triples:
            product *= float(self.store.count_pattern(tp))
            if product == 0.0:
                return 0.0
        occurrences: Dict[Variable, int] = defaultdict(int)
        for tp in query.triples:
            for var in set(tp.variables):
                occurrences[var] += 1
        domain = max(self.store.num_nodes, 1)
        for count in occurrences.values():
            if count > 1:
                product /= float(domain) ** (count - 1)
        return product

    def memory_bytes(self) -> int:
        """One counter per predicate (what a real system would keep)."""
        return self.store.num_predicates * 8
