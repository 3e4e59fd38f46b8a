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
order comes from :meth:`repro.rdf.pattern.QueryPattern.node_order`
(first-occurrence order, as in Fig. 2 step 2); edges keep triple order,
one edge per triple.

A batch is encoded in two steps.  One loop over the batch's triples
reduces it to integers, each a flat position in the ``(n, width)``
result block: a triple contributes the position of its cell
``A[i][j][l]``, a bound term the position where its row of ``X`` or
``E`` starts together with its term id; variables and the padding of a
query smaller than the encoder contribute nothing.  The features then
come from array operations over those integers, written straight into
one zeroed block — one indexed store sets the cells of ``A``,
:meth:`repro.core.encoders.TermEncoder.write_ids` writes the term rows
— and row ``r`` of the block is the flattened ``[A | X | E]`` of
query ``r``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.encoders import TermEncoder
from repro.rdf.pattern import QueryPattern
from repro.rdf.terms import Variable


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
        width = self.width
        node_width = self.nodes.width
        edge_width = self.predicates.width
        x_offset = self.a_width
        e_offset = self.a_width + self.x_width
        #: distance between the cells A[i][.][.] and A[i + 1][.][.]
        node_stride = max_nodes * max_edges
        cells: List[int] = []
        node_starts: List[int] = []
        node_ids: List[int] = []
        edge_starts: List[int] = []
        edge_ids: List[int] = []
        add_cell = cells.append
        add_node_start = node_starts.append
        add_node_id = node_ids.append
        add_edge_start = edge_starts.append
        add_edge_id = edge_ids.append
        base = 0
        for query in queries:
            triples = query.triples
            first_node = base + x_offset
            first_edge = base + e_offset
            #: node -> index, in ``QueryPattern.node_order()`` order; a
            #: variable is keyed by its name (equal variables share a
            #: name), which hashes without a Python-level ``__hash__``.
            #: The subject and the object are handled inline, not in a
            #: loop over the two, and a term is tested with
            #: ``__class__ is`` rather than ``isinstance``: this loop is
            #: most of featurisation.
            index: Dict[object, int] = {}
            l = 0
            for tp in triples:
                s = tp.s
                if s.__class__ is Variable:
                    i = index.setdefault(s.name, len(index))
                else:
                    i = index.get(s)
                    if i is None:
                        i = index[s] = len(index)
                        add_node_start(first_node + i * node_width)
                        add_node_id(s)
                o = tp.o
                if o.__class__ is Variable:
                    j = index.setdefault(o.name, len(index))
                else:
                    j = index.get(o)
                    if j is None:
                        j = index[o] = len(index)
                        add_node_start(first_node + j * node_width)
                        add_node_id(o)
                add_cell(base + i * node_stride + j * max_edges + l)
                p = tp.p
                if p.__class__ is not Variable:
                    add_edge_start(first_edge + l * edge_width)
                    add_edge_id(p)
                l += 1
            if len(index) > max_nodes:
                raise ValueError(
                    f"query has {len(index)} nodes, encoder holds "
                    f"{max_nodes}"
                )
            if l > max_edges:
                raise ValueError(
                    f"query has {l} edges, encoder holds {max_edges}"
                )
            base += width
        block = np.zeros((len(queries), width))
        flat = block.reshape(-1)
        flat[np.fromiter(cells, np.intp, len(cells))] = 1.0
        self.nodes.write_ids(flat, node_starts, node_ids)
        self.predicates.write_ids(flat, edge_starts, edge_ids)
        return block

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
