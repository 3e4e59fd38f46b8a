"""Exact counting for tree-shaped BGPs via message passing.

The SG-Encoding was designed so that one model can also learn tree
queries (paper §V-A1: "the same model may later be trained on tree or
clique queries of a predefined size").  Supporting that requires exact
tree cardinalities for training labels; enumeration through the generic
matcher grows with the answer size, while the classic message-passing DP
is linear in the graph fan-out:

    count(node = v) = prod over child edges (p, child, direction) of
                      sum over matching neighbours w of count(child = w)

valid whenever the query's undirected shape is a tree and every variable
occurs at exactly the positions the tree implies (no hidden cycles).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import PatternTerm, TriplePattern, Variable, is_bound


def is_tree_query(query: QueryPattern) -> bool:
    """True when the query's undirected node graph is a tree.

    Requires: connected, |edges| = |nodes| - 1, no repeated edges between
    the same node pair collapsing the count, and every variable used only
    as a node (bound predicates).
    """
    if any(not is_bound(tp.p) for tp in query.triples):
        return False
    nodes = query.node_order()
    if len(nodes) != len(query.triples) + 1:
        return False
    adjacency: Dict[PatternTerm, Set[PatternTerm]] = defaultdict(set)
    for tp in query.triples:
        if tp.s == tp.o:
            return False
        adjacency[tp.s].add(tp.o)
        adjacency[tp.o].add(tp.s)
    # Connectivity check by BFS over the undirected shape.
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency[current]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(nodes)


def _build_rooted_tree(
    query: QueryPattern,
) -> Tuple[PatternTerm, Dict[PatternTerm, List[Tuple]]]:
    """Orient the tree away from the first subject.

    Returns (root, children) where children[node] is a list of
    ``(predicate, child_node, outgoing)`` — ``outgoing`` is True when the
    stored triple runs node -> child.
    """
    root = query.triples[0].s
    edges: List[Tuple] = []
    for tp in query.triples:
        edges.append(tp)
    children: Dict[PatternTerm, List[Tuple]] = defaultdict(list)
    placed: Set[int] = set()
    frontier = [root]
    visited = {root}
    while frontier:
        current = frontier.pop()
        for idx, tp in enumerate(edges):
            if idx in placed:
                continue
            if tp.s == current and tp.o not in visited:
                children[current].append((tp.p, tp.o, True))
                visited.add(tp.o)
                frontier.append(tp.o)
                placed.add(idx)
            elif tp.o == current and tp.s not in visited:
                children[current].append((tp.p, tp.s, False))
                visited.add(tp.s)
                frontier.append(tp.s)
                placed.add(idx)
    return root, children


def count_tree(store: TripleStore, query: QueryPattern) -> Optional[int]:
    """Exact cardinality of a tree BGP, or None when not applicable.

    Applicable when :func:`is_tree_query` holds and every variable is
    distinct (occurs at one tree node).
    """
    if not is_tree_query(query):
        return None
    variables = [
        t for t in query.node_order() if isinstance(t, Variable)
    ]
    if len(variables) != len(set(variables)):
        return None
    root, children = _build_rooted_tree(query)

    # The DP makes huge numbers of tiny (term, value) probes; each is
    # one sorted-range slice on the backend, memoised per (tree node,
    # graph value).
    backend = store.backend

    memo: Dict[Tuple[PatternTerm, int], int] = {}

    def subtree_count(term: PatternTerm, value: int, depth: int) -> int:
        key = (term, value)
        cached = memo.get(key)
        if cached is not None:
            return cached
        product = 1
        for predicate, child, outgoing in children.get(term, []):
            neighbours = (
                backend.objects_of(value, predicate)
                if outgoing
                else backend.subjects_of(predicate, value)
            )
            if isinstance(child, Variable):
                total = 0
                for w in neighbours.tolist():
                    total += subtree_count(child, w, depth + 1)
            else:
                # neighbours is sorted: membership is one bisect.
                pos = int(np.searchsorted(neighbours, child))
                present = (
                    pos < neighbours.size
                    and int(neighbours[pos]) == child
                )
                total = (
                    subtree_count(child, child, depth + 1)
                    if present
                    else 0
                )
            if total == 0:
                product = 0
                break
            product *= total
        memo[key] = product
        return product

    if is_bound(root):
        return subtree_count(root, root, 0)
    # Candidate roots: nodes matching the root's most selective edge.
    total = 0
    first_p, first_child, outgoing = children[root][0]
    if outgoing:
        candidates = store.subjects_with_predicate(first_p)
    else:
        candidates = store.objects_with_predicate(first_p)
    for value in candidates:
        total += subtree_count(root, value, 0)
    return total
