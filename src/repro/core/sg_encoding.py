"""SG-Encoding: the paper's novel subgraph encoding (§V-A1).

A subgraph pattern with up to ``n`` nodes and ``e`` edge occurrences is
represented as ``SG = (A, X, E)``:

- ``A ∈ {0,1}^{n×n×e}`` — adjacency tensor; ``A[i][j][l] = 1`` when the
  l-th edge (in query edge order) connects the i-th node to the j-th node
  (in query node order),
- ``X`` — node feature matrix: row i is the (binary or one-hot) encoding
  of the i-th node's term id, all-zero for variables,
- ``E`` — edge feature matrix: row l encodes the l-th predicate's term id.

Unlike the pattern-bound encoding, A makes the *topology* explicit, so one
model can be trained on stars, chains, and any composite of them.  Node
and edge orders come from :meth:`repro.rdf.pattern.QueryPattern.node_order`
/ ``edge_order`` (first-occurrence order, as in Fig. 2 step 2).

A batch is encoded in two steps.  One loop over the batch's triples
reduces it to integers: query ``r`` owns node slots ``r*n .. r*n + n-1``
and edge slots ``r*e .. r*e + e-1`` of two slot grids, a bound term
contributes a ``(slot, term id)`` pair, and every triple contributes the
flat index ``((r*n + i)*n + j)*e + l`` of its cell of ``A``; variables
and the padding of a query smaller than the encoder contribute nothing.
The features then come from array operations over those integers — one
indexed store sets the cells of ``A``,
:meth:`repro.core.encoders.TermEncoder.encode_ids` expands each grid to
its ``(slots, width)`` rows — and row ``r`` of the result is the
flattened ``[A | X | E]`` of query ``r``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.encoders import TermEncoder
from repro.rdf.pattern import QueryPattern
from repro.rdf.terms import PatternTerm, Variable


class SGEncoding:
    """Featurizer producing flattened (A, X, E) vectors."""

    def __init__(
        self,
        max_nodes: int,
        max_edges: int,
        node_encoder: TermEncoder,
        predicate_encoder: TermEncoder,
    ) -> None:
        if max_nodes < 2 or max_edges < 1:
            raise ValueError("need at least 2 nodes and 1 edge")
        self.max_nodes = max_nodes
        self.max_edges = max_edges
        self.nodes = node_encoder
        self.predicates = predicate_encoder
        self.a_width = max_nodes * max_nodes * max_edges
        self.x_width = max_nodes * node_encoder.width
        self.e_width = max_edges * predicate_encoder.width
        self.width = self.a_width + self.x_width + self.e_width

    @classmethod
    def for_query_size(
        cls,
        max_size: int,
        node_encoder: TermEncoder,
        predicate_encoder: TermEncoder,
    ) -> "SGEncoding":
        """Dimension the encoding for star/chain queries up to *max_size*
        triples: both have at most ``size + 1`` nodes and ``size`` edges."""
        return cls(
            max_size + 1, max_size, node_encoder, predicate_encoder
        )

    def encode_batch(self, queries: Sequence[QueryPattern]) -> np.ndarray:
        """Flattened ``[A | X | E]`` rows, one per query: ``(n, width)``.

        Raises :class:`ValueError`, before any array is returned, for a
        query with more nodes or edges than the encoder holds and for a
        bound term id outside its encoder's domain.
        """
        max_nodes, max_edges = self.max_nodes, self.max_edges
        cells: List[int] = []
        node_slots: List[int] = []
        node_ids: List[int] = []
        edge_slots: List[int] = []
        edge_ids: List[int] = []
        for row, query in enumerate(queries):
            first_node = row * max_nodes
            first_edge = row * max_edges
            #: node term -> index, in ``QueryPattern.node_order()`` order
            index: Dict[PatternTerm, int] = {}
            for l, tp in enumerate(query.triples):
                cell = row
                for term in (tp.s, tp.o):
                    i = index.get(term)
                    if i is None:
                        i = index[term] = len(index)
                        if not isinstance(term, Variable):
                            node_slots.append(first_node + i)
                            node_ids.append(term)
                    cell = cell * max_nodes + i
                cells.append(cell * max_edges + l)
                if not isinstance(tp.p, Variable):
                    edge_slots.append(first_edge + l)
                    edge_ids.append(tp.p)
            if len(index) > max_nodes:
                raise ValueError(
                    f"query has {len(index)} nodes, encoder holds "
                    f"{max_nodes}"
                )
            if query.size > max_edges:
                raise ValueError(
                    f"query has {query.size} edges, encoder holds "
                    f"{max_edges}"
                )
        n = len(queries)
        a = np.zeros(n * self.a_width)
        a[cells] = 1.0
        x = self.nodes.encode_ids(n * max_nodes, node_slots, node_ids)
        e = self.predicates.encode_ids(n * max_edges, edge_slots, edge_ids)
        return np.concatenate(
            [
                a.reshape(n, self.a_width),
                x.reshape(n, self.x_width),
                e.reshape(n, self.e_width),
            ],
            axis=1,
        )

    def encode(self, query: QueryPattern) -> np.ndarray:
        """Flattened [A | X | E] feature vector."""
        return self.encode_batch([query])[0]

    def components(self, query: QueryPattern):
        """The (A, X, E) arrays of *query*, unflattened."""
        a, x, e = np.split(
            self.encode(query), [self.a_width, self.a_width + self.x_width]
        )
        return (
            a.reshape(self.max_nodes, self.max_nodes, self.max_edges),
            x.reshape(self.max_nodes, self.nodes.width),
            e.reshape(self.max_edges, self.predicates.width),
        )
