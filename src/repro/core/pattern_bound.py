"""Pattern-bound query encoding (paper §V-A2).

An encoding tailored to one query topology: the flattened concatenation of
the term encodings in the topology's natural order.

- **Star**: subject encoding followed by the k (predicate, object) pair
  encodings.  Pairs are sorted canonically (bound predicates first by id,
  then bound objects before variables) so that queries differing only in
  triple order featurize identically.
- **Chain**: the node/predicate alternation ``[n1, p1, n2, ..., pk, nk+1]``
  in walk order — the order is already evident from the topology, as the
  paper notes.

A pattern-bound encoder is fixed to one topology and one size; grouped
models that must host several sizes zero-pad shorter queries (an absent
triple encodes exactly like an all-unbound one, which cannot collide with
a real triple because real predicates are always bound in our workloads).

A batch is encoded like the SG-Encoding's: one loop reduces it to
integers, array operations expand them.  Query ``r`` owns node slots
``r*(k+1) .. r*(k+1) + k`` (centre or first subject, then the objects in
encoding order) and predicate slots ``r*k .. r*k + k-1`` for an encoder
of maximum size ``k``; a bound term contributes a ``(slot, term id)``
pair, variables and the padding of a shorter query nothing.
:meth:`repro.core.encoders.TermEncoder.encode_ids` expands each grid to
``(slots, width)`` rows, and row ``r`` of the result interleaves them as
``[node 0, pred 0, node 1, pred 1, node 2, ...]``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.encoders import TermEncoder
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.terms import PatternTerm, is_bound


def _pair_sort_key(pair: Tuple[PatternTerm, PatternTerm]):
    p, o = pair
    p_key = (0, p) if is_bound(p) else (1, 0)
    o_key = (0, o) if is_bound(o) else (1, 0)
    return (p_key, o_key)


class PatternBoundEncoder:
    """Flat featurizer for star or chain queries up to a maximum size."""

    def __init__(
        self,
        topology: str,
        max_size: int,
        node_encoder: TermEncoder,
        predicate_encoder: TermEncoder,
    ) -> None:
        if topology not in ("star", "chain"):
            raise ValueError(f"unsupported topology {topology!r}")
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.topology = topology
        self.max_size = max_size
        self.nodes = node_encoder
        self.predicates = predicate_encoder
        # Star: subject + k pairs; chain: k+1 nodes interleaved with k preds.
        self.width = (
            self.nodes.width
            + max_size * (self.predicates.width + self.nodes.width)
        )

    def encode_batch(self, queries: Sequence[QueryPattern]) -> np.ndarray:
        """Featurize queries into a ``(n, width)`` matrix.

        Raises :class:`ValueError`, before any array is returned, on a
        topology or size mismatch and for a bound term id outside its
        encoder's domain.
        """
        star = self.topology == "star"
        expected = Topology.STAR if star else Topology.CHAIN
        node_slots: List[int] = []
        node_ids: List[int] = []
        pred_slots: List[int] = []
        pred_ids: List[int] = []
        for row, query in enumerate(queries):
            if query.size > self.max_size:
                raise ValueError(
                    f"query size {query.size} exceeds encoder max "
                    f"{self.max_size}"
                )
            actual = query.topology()
            if actual not in (expected, Topology.SINGLE):
                raise ValueError(
                    f"{self.topology} encoder got a {actual.value} query"
                )
            pairs = [(tp.p, tp.o) for tp in query.triples]
            if star:
                pairs.sort(key=_pair_sort_key)
            first_node = row * (self.max_size + 1)
            first_pred = row * self.max_size
            head = query.triples[0].s  # star centre / chain start
            if is_bound(head):
                node_slots.append(first_node)
                node_ids.append(head)
            for k, (p, o) in enumerate(pairs):
                if is_bound(p):
                    pred_slots.append(first_pred + k)
                    pred_ids.append(p)
                if is_bound(o):
                    node_slots.append(first_node + k + 1)
                    node_ids.append(o)
        n = len(queries)
        nodes = self.nodes.encode_ids(
            n * (self.max_size + 1), node_slots, node_ids
        ).reshape(n, self.max_size + 1, self.nodes.width)
        preds = self.predicates.encode_ids(
            n * self.max_size, pred_slots, pred_ids
        ).reshape(n, self.max_size, self.predicates.width)
        tail = np.concatenate([preds, nodes[:, 1:]], axis=2)
        return np.concatenate(
            [nodes[:, 0], tail.reshape(n, self.width - self.nodes.width)],
            axis=1,
        )

    def encode(self, query: QueryPattern) -> np.ndarray:
        """Featurize *query*; raises on topology/size mismatch."""
        return self.encode_batch([query])[0]
