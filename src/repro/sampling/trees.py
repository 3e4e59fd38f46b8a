"""Tree-pattern sampling: training data for the SG-Encoding's
beyond-star/chain capability (paper §V-A1 future work).

A tree instance of size k is a connected, acyclic set of k triples grown
from a random start node by repeatedly expanding a random frontier node
along a random incident edge (out- or in-edge), never revisiting a node.
Unbinding masks then turn instances into labelled tree queries, exactly
like the star/chain pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import PatternTerm, TriplePattern, Variable
from repro.rdf.treecount import count_tree, is_tree_query
from repro.sampling.workload import QueryRecord, Workload

#: A bound tree instance: list of (s, p, o) triples forming a tree.
TreeInstance = Tuple[Tuple[int, int, int], ...]


def sample_tree_instance(
    store: TripleStore, size: int, rng: np.random.Generator
) -> Optional[TreeInstance]:
    """Grow one tree of *size* triples; None when the walk starves."""
    nodes = store.nodes()
    start = nodes[int(rng.integers(len(nodes)))]
    visited = {start}
    triples: List[Tuple[int, int, int]] = []
    frontier = [start]
    attempts = 0
    while len(triples) < size and attempts < size * 20:
        attempts += 1
        node = frontier[int(rng.integers(len(frontier)))]
        backend = store.backend
        out_p, out_o = backend.out_slice(node)
        in_s, in_p = backend.in_slice(node)
        out_n = int(out_p.size)
        total = out_n + int(in_s.size)
        if total == 0:
            continue
        pick = int(rng.integers(total))
        if pick < out_n:
            p, o = int(out_p[pick]), int(out_o[pick])
            if o in visited:
                continue
            triples.append((node, p, o))
            visited.add(o)
            frontier.append(o)
        else:
            s, p = int(in_s[pick - out_n]), int(in_p[pick - out_n])
            if s in visited:
                continue
            triples.append((s, p, node))
            visited.add(s)
            frontier.append(s)
    if len(triples) < size:
        return None
    return tuple(triples)


def tree_query_from_instance(
    instance: TreeInstance, unbound_mask: Sequence[bool]
) -> QueryPattern:
    """Unbind nodes of a tree instance per *unbound_mask*.

    The mask indexes nodes in first-occurrence order over the instance's
    triples (the same order :meth:`QueryPattern.node_order` yields).
    """
    node_order: Dict[int, int] = {}
    for s, p, o in instance:
        node_order.setdefault(s, len(node_order))
        node_order.setdefault(o, len(node_order))
    if len(unbound_mask) != len(node_order):
        raise ValueError(
            f"mask needs {len(node_order)} flags, got {len(unbound_mask)}"
        )

    def resolve(node: int) -> PatternTerm:
        idx = node_order[node]
        return Variable(f"n{idx}") if unbound_mask[idx] else node

    return QueryPattern(
        [TriplePattern(resolve(s), p, resolve(o)) for s, p, o in instance]
    )


def generate_tree_workload(
    store: TripleStore,
    size: int,
    num_queries: int,
    seed: int = 0,
) -> Workload:
    """Sampled, unbound, deduplicated, exactly-labelled tree queries.

    Pure star/chain draws (a tree can degenerate into either) are kept —
    they are legitimate tree queries — but the workload is dominated by
    genuinely branching shapes.
    """
    from repro.rdf.fastcount import count_query
    from repro.sampling.unbinding import random_unbound_mask

    rng = np.random.default_rng(seed + 3)
    seen = set()
    records: List[QueryRecord] = []
    attempts = 0
    budget = num_queries * 30
    while len(records) < num_queries and attempts < budget:
        attempts += 1
        instance = sample_tree_instance(store, size, rng)
        if instance is None:
            continue
        num_nodes = len(
            {n for s, _, o in instance for n in (s, o)}
        )
        mask = random_unbound_mask(num_nodes, rng)
        query = tree_query_from_instance(instance, mask)
        key = query.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        cardinality = count_tree(store, query)
        if cardinality is None:
            cardinality = count_query(store, query)
        if cardinality < 1:
            raise AssertionError(
                f"sampled tree query with zero cardinality: {query}"
            )
        records.append(QueryRecord(query, "tree", size, cardinality))
    return Workload("tree", size, records)
