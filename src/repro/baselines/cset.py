"""Characteristic Sets (Neumann & Moerkotte, ICDE 2011).

The characteristic set of a subject is the set of predicates it emits.
The synopsis stores, for every distinct characteristic set C:

- ``count(C)`` — how many subjects have exactly that set,
- ``occurrences(C, p)`` — how many (s, p, o) triples those subjects emit
  with predicate p.

A star query with predicate set {p1..pk} and unbound objects is estimated
as::

    sum over C ⊇ {p1..pk} of count(C) * prod_i occurrences(C, p_i)/count(C)

Bound objects multiply in a per-predicate selectivity under independence
(the original paper's approach for partially bound stars).  Chain queries
are outside characteristic sets' native scope; like the LMKG authors (who
reimplemented CSET for exactly this reason) we extend it with the classic
average-fanout chain formula over per-predicate statistics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Tuple

from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import is_bound


class CharacteristicSets(Estimator):
    """The CSET synopsis plus star/chain estimation."""

    name = "cset"

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self._count: Dict[FrozenSet[int], int] = defaultdict(int)
        self._occurrences: Dict[Tuple[FrozenSet[int], int], int] = (
            defaultdict(int)
        )
        # Per-predicate statistics for the chain extension and bound-object
        # selectivities.
        self._pred_triples: Dict[int, int] = {}
        self._pred_subjects: Dict[int, int] = {}
        self._pred_objects: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        # One pass over the SPO permutation: each subject's distinct
        # predicates with their fan-outs give every characteristic set
        # and its occurrence counts without per-subject lookups.
        col = self.store.backend
        for preds, fanouts in col.subject_predicate_groups():
            cset = frozenset(preds)
            self._count[cset] += 1
            for p, fanout in zip(preds, fanouts):
                self._occurrences[(cset, p)] += fanout
        for p in self.store.predicates():
            self._pred_triples[p] = self.store.predicate_count(p)
            self._pred_subjects[p] = col.predicate_subject_stats(p)[0].size
            self._pred_objects[p] = col.predicate_object_stats(p)[0].size

    # ------------------------------------------------------------------

    def _estimate_one(self, query: QueryPattern) -> float:
        topo = query.topology()
        if topo in (Topology.STAR, Topology.SINGLE):
            return self._estimate_star(query)
        if topo is Topology.CHAIN:
            return self._estimate_chain(query)
        # Composite: independence across a star/chain split would need a
        # decomposer; CSET answers with the star formula over the subject
        # groups joined by uniformity, which reduces to the chain formula
        # here.  Fall back to the chain-style product.
        return self._estimate_chain(query)

    def _estimate_star(self, query: QueryPattern) -> float:
        predicates = [tp.p for tp in query.triples]
        if not all(is_bound(p) for p in predicates):
            # Unbound predicate: degrade to the total triple count ratio.
            return float(len(self.store))
        centre = query.triples[0].s
        if is_bound(centre):
            # Bound subject: its characteristic set answers directly.
            product = 1.0
            for tp in query.triples:
                backend = self.store.backend
                if is_bound(tp.o):
                    product *= (
                        1.0 if backend.contains(centre, tp.p, tp.o) else 0.0
                    )
                else:
                    product *= float(backend.count_sp(centre, tp.p))
            return product
        wanted = set(predicates)
        total = 0.0
        for cset, count in self._count.items():
            if not wanted.issubset(cset):
                continue
            product = float(count)
            for p in predicates:
                product *= self._occurrences[(cset, p)] / count
            total += product
        # Independence correction for bound objects.
        for tp in query.triples:
            if is_bound(tp.o):
                total *= self._object_selectivity(tp.p, tp.o)
        return total

    def _object_selectivity(self, p: int, o: int) -> float:
        triples_p = self._pred_triples.get(p, 0)
        if triples_p == 0:
            return 0.0
        matching = self.store.backend.count_po(p, o)
        return matching / triples_p

    def _estimate_chain(self, query: QueryPattern) -> float:
        """Average-fanout chain estimate over per-predicate statistics.

        card ≈ |T_p1| * prod_{i>=2} |T_pi| / |distinct subjects of pi|,
        with bound endpoints applying independence selectivities.
        """
        triples = query.triples
        if not all(is_bound(tp.p) for tp in triples):
            return float(len(self.store))
        first = triples[0]
        estimate = float(self._pred_triples.get(first.p, 0))
        if estimate == 0.0:
            return 0.0
        if is_bound(first.s):
            subjects = self._pred_subjects.get(first.p, 1)
            estimate /= max(subjects, 1)
        for tp in triples[1:]:
            triples_p = self._pred_triples.get(tp.p, 0)
            subjects_p = max(self._pred_subjects.get(tp.p, 1), 1)
            estimate *= triples_p / subjects_p
        last = triples[-1]
        if is_bound(last.o):
            objects_p = max(self._pred_objects.get(last.p, 1), 1)
            estimate /= objects_p
        # Bound intermediate nodes (rare in the workloads) apply the same
        # uniformity correction on their predicate's object domain.
        for prev, nxt in zip(triples, triples[1:]):
            if is_bound(prev.o):
                objects_p = max(
                    self._pred_objects.get(prev.p, 1), 1
                )
                estimate /= objects_p
        return estimate

    def memory_bytes(self) -> int:
        """Synopsis size: one integer per set entry plus per-set counters."""
        entries = sum(len(cset) for cset in self._count)
        ints = len(self._count) + len(self._occurrences) + entries
        ints += 3 * len(self._pred_triples)
        return ints * 8
