"""JSUB: join sampling with upper bounds (Zhao et al., SIGMOD 2018),
adapted for cardinality upper-bound estimation as in G-CARE.

Like WanderJoin, JSUB walks the join order sampling one candidate per
pattern.  The difference is the treatment of partial walks: instead of
contributing 0, a walk that dead-ends after pattern j contributes the
product accumulated so far multiplied by an upper bound on the remaining
patterns' fanout (the per-predicate maximum degree).  This yields the
systematic *over*estimates the paper observes for JSUB.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.wanderjoin import order_patterns
from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, Variable, is_bound


class JSUB(Estimator):
    """Sampling estimator producing cardinality upper bounds."""

    name = "jsub"

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
        self._max_out: Dict[int, int] = {}
        self._max_in: Dict[int, int] = {}
        col = store.backend
        for p in store.predicates():
            _, out_fanouts = col.predicate_subject_stats(p)
            _, in_fanouts = col.predicate_object_stats(p)
            self._max_out[p] = int(out_fanouts.max(initial=0))
            self._max_in[p] = int(in_fanouts.max(initial=0))

    def _estimate_one(self, query: QueryPattern) -> float:
        ordered = order_patterns(self.store, query)
        estimates = [self._run_once(ordered) for _ in range(self.runs)]
        return float(np.mean(estimates))

    def _run_once(self, ordered: List[TriplePattern]) -> float:
        total = 0.0
        for _ in range(self.walks_per_run):
            total += self._walk(ordered)
        return total / self.walks_per_run

    def _pattern_bound(self, tp: TriplePattern) -> float:
        """Static fanout upper bound of one pattern given its prefix."""
        if not is_bound(tp.p):
            return float(len(self.store))
        # With a bound/shared subject the fanout is at most max out-degree
        # of the predicate; symmetric for objects; otherwise predicate
        # cardinality bounds it.
        if is_bound(tp.s) or isinstance(tp.s, Variable):
            return float(max(self._max_out.get(tp.p, 0), 1))
        return float(max(self.store.predicate_count(tp.p), 1))

    def _walk(self, ordered: List[TriplePattern]) -> float:
        bindings = {}
        weight = 1.0
        for j, tp in enumerate(ordered):
            bound_tp = tp.bind(bindings)
            candidates = list(self.store.match_pattern(bound_tp))
            if not candidates:
                # Upper-bound the unexplored suffix instead of zeroing.
                for rest in ordered[j:]:
                    weight *= self._pattern_bound(rest.bind(bindings))
                return weight
            choice = candidates[
                int(self._rng.integers(len(candidates)))
            ]
            weight *= len(candidates)
            for position, value in zip(bound_tp, choice):
                if isinstance(position, Variable):
                    bindings[position] = value
        return weight
