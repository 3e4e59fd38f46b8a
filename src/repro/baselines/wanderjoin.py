"""WanderJoin (Li et al., SIGMOD 2016) adapted to triple patterns.

Online aggregation via random walks over the join graph: triple patterns
are visited in a fixed order; the walk picks a uniformly random matching
triple for the first pattern, then a uniformly random candidate for each
subsequent (partially bound) pattern.  A completed walk of candidate
counts ``n1, n2, ..., nk`` contributes the Horvitz-Thompson estimate
``prod n_i``; a dead-ended walk contributes 0.  The mean over walks is an
unbiased cardinality estimate.

G-CARE runs each sampling estimator 30 times and averages; ``estimate``
does the same internally (``runs`` x ``walks_per_run`` walks total), so
wall-clock measurements match the paper's protocol.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, Variable


def order_patterns(
    store: TripleStore, query: QueryPattern
) -> List[TriplePattern]:
    """Walk order: most selective pattern first, then connectivity-greedy.

    Each subsequent pattern must share a variable with the prefix (or be
    fully bound), so candidate sets stay small.
    """
    remaining = list(query.triples)
    remaining.sort(key=lambda tp: store.count_pattern(tp))
    ordered = [remaining.pop(0)]
    bound_vars = set(ordered[0].variables)
    while remaining:
        idx = None
        for i, tp in enumerate(remaining):
            if set(tp.variables) & bound_vars or not tp.variables:
                idx = i
                break
        if idx is None:
            # Disconnected query: take the most selective leftover.
            idx = 0
        tp = remaining.pop(idx)
        bound_vars |= set(tp.variables)
        ordered.append(tp)
    return ordered


class WanderJoin(Estimator):
    """Random-walk join sampling estimator."""

    name = "wj"

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

    def _estimate_one(self, query: QueryPattern) -> float:
        """Mean of ``runs`` independent walk-batch estimates."""
        ordered = order_patterns(self.store, query)
        estimates = [
            self._run_once(ordered) for _ in range(self.runs)
        ]
        return float(np.mean(estimates))

    def _run_once(self, ordered: List[TriplePattern]) -> float:
        total = 0.0
        for _ in range(self.walks_per_run):
            total += self._walk(ordered)
        return total / self.walks_per_run

    def _walk(self, ordered: List[TriplePattern]) -> float:
        bindings = {}
        weight = 1.0
        for tp in ordered:
            bound_tp = tp.bind(bindings)
            candidates = list(self.store.match_pattern(bound_tp))
            if not candidates:
                return 0.0
            choice = candidates[
                int(self._rng.integers(len(candidates)))
            ]
            weight *= len(candidates)
            for position, value in zip(bound_tp, choice):
                if isinstance(position, Variable):
                    bindings[position] = value
        return weight
