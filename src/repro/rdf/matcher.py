"""Exact BGP evaluation: the ground-truth cardinality oracle.

Every experiment in the paper compares an estimator against the *true*
cardinality ``card(qp)`` — the number of variable bindings under which all
triple patterns of the query match the graph.  This module computes that
number exactly with a backtracking join whose next pattern is always the
one with the fewest candidate triples under the current bindings (a greedy
selectivity-first join order, the standard approach in RDF engines).

Single-pattern probes go through the store facade
(:meth:`TripleStore.match_pattern` / :meth:`TripleStore.count_pattern`),
which routes each bound-position shape to the best permutation slice of
the committed :class:`~repro.rdf.columnar.ColumnarBackend`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple, TriplePattern, Variable

Bindings = Dict[Variable, int]


def _match_single(
    store: TripleStore, tp: TriplePattern
) -> Iterator[Triple]:
    """Triples matching one pattern (repeated variables honoured)."""
    return store.match_pattern(tp)


def _count_single(store: TripleStore, tp: TriplePattern) -> int:
    """Exact single-pattern count, as a pure range width when possible."""
    return store.count_pattern(tp)


def _extend(
    bindings: Bindings, tp: TriplePattern, triple
) -> Optional[Bindings]:
    """Extend *bindings* so *tp* maps onto *triple*; None on conflict."""
    new = bindings
    copied = False
    for position, value in zip(tp, triple):
        if isinstance(position, Variable):
            bound = new.get(position)
            if bound is None:
                if not copied:
                    new = dict(new)
                    copied = True
                new[position] = value
            elif bound != value:
                return None
        elif position != value:
            return None
    return new


def _pick_next(
    store: TripleStore, remaining: List[TriplePattern], bindings: Bindings
) -> int:
    """Index of the remaining pattern with the fewest candidates."""
    best_idx = 0
    best_count = None
    for idx, tp in enumerate(remaining):
        bound_tp = tp.bind(bindings)
        count = _count_single(store, bound_tp)
        if best_count is None or count < best_count:
            best_idx, best_count = idx, count
            if best_count == 0:
                break
    return best_idx


def iter_bindings(
    store: TripleStore, query: QueryPattern
) -> Iterator[Bindings]:
    """Yield every solution mapping of *query* over *store*.

    Solutions follow SPARQL BGP semantics without DISTINCT: one result per
    total variable binding satisfying all triple patterns.
    """
    yield from _search(store, list(query.triples), {})


def _search(
    store: TripleStore, remaining: List[TriplePattern], bindings: Bindings
) -> Iterator[Bindings]:
    if not remaining:
        yield bindings
        return
    idx = _pick_next(store, remaining, bindings)
    tp = remaining[idx]
    rest = remaining[:idx] + remaining[idx + 1:]
    bound_tp = tp.bind(bindings)
    for triple in _match_single(store, bound_tp):
        extended = _extend(bindings, bound_tp, triple)
        if extended is not None:
            yield from _search(store, rest, extended)


def count_bgp(store: TripleStore, query: QueryPattern) -> int:
    """Exact cardinality ``card(qp)`` of *query* over *store*."""
    return _count(store, list(query.triples), {})


def _count(
    store: TripleStore, remaining: List[TriplePattern], bindings: Bindings
) -> int:
    if not remaining:
        return 1
    idx = _pick_next(store, remaining, bindings)
    tp = remaining[idx]
    rest = remaining[:idx] + remaining[idx + 1:]
    bound_tp = tp.bind(bindings)
    # Fast path: when this was the last pattern and it has no repeated
    # variables, the indexes count matches without enumerating them.
    if not rest and len(bound_tp.variables) == len(set(bound_tp.variables)):
        return _count_single(store, bound_tp)
    total = 0
    for triple in _match_single(store, bound_tp):
        extended = _extend(bindings, bound_tp, triple)
        if extended is not None:
            total += _count(store, rest, extended)
    return total


def cardinalities(
    store: TripleStore, queries: Sequence[QueryPattern]
) -> List[int]:
    """Exact cardinalities for a batch of queries."""
    return [count_bgp(store, q) for q in queries]
