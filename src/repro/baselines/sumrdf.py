"""SUMRDF: graph summarisation with possible-world semantics
(Stefanoni, Motik, Kostylev — WWW 2018).

Nodes are partitioned into buckets; the summary records, per
(source bucket, predicate, target bucket), how many graph triples it
covers.  Under the possible-world interpretation each summary triple's
``weight`` edges are distributed uniformly among the ``|b1| * |b2|``
node pairs, so the *expected* cardinality of a query is::

    sum over assignments of query nodes to buckets of
        prod over triples  weight(b_s, p, b_o) / (|b_s| * |b_o|)
        * prod over distinct unbound query nodes |bucket(node)|

Bound terms are pinned to their own bucket and contribute no domain
factor.  The assignment enumeration reuses the backtracking matcher over
a bucket-level triple store.

Bucketisation follows the original's typed summarisation in spirit:
nodes sharing a characteristic-set signature group together, hashed down
to a target bucket count.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.core.estimator import Estimator
from repro.rdf.matcher import iter_bindings
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, Variable, is_bound


class SumRDF(Estimator):
    """Bucket summary estimator."""

    name = "sumrdf"

    def __init__(
        self, store: TripleStore, target_buckets: int = 256, seed: int = 0
    ) -> None:
        self.store = store
        self.target_buckets = target_buckets
        self._bucket_of: Dict[int, int] = {}
        self._bucket_size: Dict[int, int] = defaultdict(int)
        self._weights: Dict[Tuple[int, int, int], int] = defaultdict(int)
        self._summary = TripleStore()
        self._build()

    def _signature(self, node: int) -> int:
        backend = self.store.backend
        # out_predicates is already sorted-distinct; the in-predicate
        # set is one np.unique over the incoming slice's predicate
        # column.
        preds = tuple(backend.out_predicates(node).tolist())
        in_preds = tuple(np.unique(backend.in_slice(node)[1]).tolist())
        return hash((preds, in_preds)) % self.target_buckets

    def _build(self) -> None:
        for node in self.store.nodes():
            bucket = self._signature(node)
            self._bucket_of[node] = bucket
            self._bucket_size[bucket] += 1
        for s, p, o in self.store:
            key = (self._bucket_of[s], p, self._bucket_of[o])
            self._weights[key] += 1
        for (b1, p, b2), _ in self._weights.items():
            # Bucket ids are shifted by 1: the summary store reserves 0.
            self._summary.add(b1 + 1, p, b2 + 1)

    # ------------------------------------------------------------------

    def _estimate_one(self, query: QueryPattern) -> float:
        """Expected cardinality over the possible worlds of the summary."""
        bucket_query, bound_nodes = self._to_bucket_query(query)
        total = 0.0
        for binding in iter_bindings(self._summary, bucket_query):
            expectation = 1.0
            domain_counted = set()
            for original, rewritten in zip(
                query.triples, bucket_query.triples
            ):
                b_s = self._resolve(rewritten.s, binding)
                b_o = self._resolve(rewritten.o, binding)
                weight = self._weights.get(
                    (b_s - 1, original.p, b_o - 1), 0
                )
                size_s = self._bucket_size[b_s - 1]
                size_o = self._bucket_size[b_o - 1]
                expectation *= weight / (size_s * size_o)
                # Unbound nodes multiply in their bucket size once.
                for term, bucket in ((original.s, b_s), (original.o, b_o)):
                    if isinstance(term, Variable):
                        if term not in domain_counted:
                            domain_counted.add(term)
                            expectation *= self._bucket_size[bucket - 1]
            total += expectation
        return total

    def _to_bucket_query(
        self, query: QueryPattern
    ) -> Tuple[QueryPattern, List[int]]:
        """Rewrite node terms to bucket ids (+1); variables stay."""
        rewritten = []
        bound_nodes: List[int] = []
        for tp in query.triples:
            s = (
                tp.s
                if isinstance(tp.s, Variable)
                else self._bucket_of.get(tp.s, -1) + 1
            )
            o = (
                tp.o
                if isinstance(tp.o, Variable)
                else self._bucket_of.get(tp.o, -1) + 1
            )
            if not is_bound(tp.p):
                raise ValueError("SUMRDF requires bound predicates")
            rewritten.append(TriplePattern(s, tp.p, o))
        return QueryPattern(rewritten), bound_nodes

    @staticmethod
    def _resolve(term, binding) -> int:
        if isinstance(term, Variable):
            return binding[term]
        return term

    def memory_bytes(self) -> int:
        """Summary size: bucket table plus weighted summary triples."""
        ints = len(self._bucket_of) + len(self._bucket_size)
        ints += 4 * len(self._weights)
        return ints * 8
