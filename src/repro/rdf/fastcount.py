"""Vectorized exact counters for star and chain queries.

Generating training data requires labelling tens of thousands of queries
with their true cardinality.  The generic backtracking matcher
(:mod:`repro.rdf.matcher`) enumerates solutions, so its cost grows with
the answer size; for the two topologies LMKG supports there are
closed-form/DP counters whose cost is independent of the result
cardinality, and both run as **array reductions over the store
backend** (:mod:`repro.rdf.columnar`) with no per-triple Python work:

- **Star** (?s shared, objects distinct variables or bound): the count is
  ``sum over candidate subjects of the product over triples of the
  per-triple match count``.  Candidate subjects are one sorted array;
  each triple contributes a factor vector — an ``sp_counts`` fan-out for
  unbound objects, a sorted-membership mask for bound ones — and the
  answer is the sum of the running elementwise product.
- **Chain** (n1 -p1-> n2 -p2-> ... with distinct node variables): a
  forward DP over "number of partial walks ending at node v".  The
  frontier is a (nodes, ways) array pair; each step expands contiguous
  PSO ranges (``sp_ranges`` + one ``np.repeat``) and re-aggregates with
  ``np.unique``/``np.add.at`` — one segment-product pass per triple.

Both are *exact* and are validated against the generic matcher in the
test suite (including hypothesis property tests on random graphs).
Counts are accumulated in int64; when the float shadow of a partial
result nears the int64 range, the counter falls back to scalar-probe
arbitrary-precision Python implementations (``_count_star_python`` /
``_count_chain_python``), which double as the per-triple reference that
`benchmarks/bench_store_throughput.py` measures the vectorized path
against.  :func:`count_query`
dispatches to the fast path when the query shape allows it and falls
back to :func:`repro.rdf.matcher.count_bgp` otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.rdf import matcher
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import Variable, is_bound

#: Above this magnitude int64 products may overflow; fall back to Python.
_INT64_SAFE = float(2 ** 62)


def _distinct_variables(query: QueryPattern) -> bool:
    """True when no variable occurs in two *different* roles that the
    fast counters cannot handle (they handle only the structural sharing
    that defines the topology)."""
    seen = {}
    for t_idx, tp in enumerate(query.triples):
        for pos, term in zip("spo", tp):
            if isinstance(term, Variable):
                seen.setdefault(term, []).append((t_idx, pos))
    return seen


def _star_applicable(query: QueryPattern) -> bool:
    """Shape check shared by the vectorized and Python star counters."""
    centre = query.triples[0].s
    for tp in query.triples:
        if tp.s != centre or not is_bound(tp.p):
            return False
    occurrences = _distinct_variables(query)
    for var, occ in occurrences.items():
        if var == centre:
            if any(pos != "s" for _, pos in occ):
                return False
        elif len(occ) != 1 or occ[0][1] != "o":
            return False
    return True


def count_star(store: TripleStore, query: QueryPattern) -> Optional[int]:
    """Exact count for a subject-star query; None when not applicable.

    Applicable when all triples share the subject term, predicates are
    bound, and every object is either bound or a variable that occurs
    exactly once in the query.  One factor vector per triple, one sum.
    """
    if not _star_applicable(query):
        return None
    centre = query.triples[0].s
    col = store.backend

    best = None
    best_counts = None
    if is_bound(centre):
        candidates = np.array([centre], dtype=np.int64)
    else:
        # Seed candidates from the most selective triple.
        best = min(
            query.triples,
            key=lambda tp: (
                col.count_po(tp.p, tp.o)
                if is_bound(tp.o)
                else col.predicate_count(tp.p)
            ),
        )
        if is_bound(best.o):
            candidates = col.subjects_of(best.p, best.o)
        else:
            # The grouped predicate slice gives the seed triple's
            # fan-out per candidate along with the candidates.
            candidates, best_counts = col.predicate_subject_stats(best.p)
    if candidates.size == 0:
        return 0

    products = np.ones(candidates.size, dtype=np.int64)
    shadow = np.ones(candidates.size, dtype=np.float64)
    seeded = False
    for tp in query.triples:
        if tp is best and best_counts is not None and not seeded:
            # Fan-outs already known from candidate construction.
            seeded = True
            products *= best_counts
            shadow *= best_counts
        elif is_bound(tp.o):
            member = col.sp_have_object(candidates, tp.p, tp.o)
            products *= member
            shadow *= member
        else:
            counts = col.sp_counts(candidates, tp.p)
            products *= counts
            shadow *= counts
        if float(shadow.max(initial=0.0)) > _INT64_SAFE:
            return _count_star_python(store, query)
    total = float(shadow.sum())
    if total > _INT64_SAFE:
        return _count_star_python(store, query)
    return int(products.sum())


def _chain_applicable(query: QueryPattern) -> bool:
    """Shape check shared by the vectorized and Python chain counters."""
    triples = query.triples
    for prev, nxt in zip(triples, triples[1:]):
        if prev.o != nxt.s:
            return False
    for tp in triples:
        if not is_bound(tp.p):
            return False
    # Build the occurrence map the chain structure *implies* and require
    # the actual variable occurrences to match it exactly.  A variable
    # appearing anywhere else (a cycle back to an earlier node) breaks the
    # DP's independence assumption, so those queries fall back.
    chain_nodes = [triples[0].s] + [tp.o for tp in triples]
    var_nodes = [t for t in chain_nodes if isinstance(t, Variable)]
    if len(var_nodes) != len(set(var_nodes)):
        return False
    expected: Dict[Variable, list] = {}
    last = len(chain_nodes) - 1
    for i, node in enumerate(chain_nodes):
        if not isinstance(node, Variable):
            continue
        positions = []
        if i < last:
            positions.append((i, "s"))
        if i > 0:
            positions.append((i - 1, "o"))
        expected[node] = sorted(positions)
    occurrences = _distinct_variables(query)
    for var, occ in occurrences.items():
        if sorted(occ) != expected.get(var):
            return False
    return True


def count_chain(store: TripleStore, query: QueryPattern) -> Optional[int]:
    """Exact count for a chain query via a vectorized forward DP; None if
    not applicable.

    Applicable when object i is subject i+1, predicates are bound, and
    every node variable occurs only in its chain positions.  The
    frontier (nodes, walk counts) advances one predicate slice at a
    time: contiguous PSO ranges per frontier node, expanded with one
    ``np.repeat``, re-aggregated with ``np.unique`` + ``np.add.at``.
    """
    if not _chain_applicable(query):
        return None
    col = store.backend
    triples = query.triples

    first = triples[0]
    if is_bound(first.s):
        nodes = np.array([first.s], dtype=np.int64)
        ways = np.ones(nodes.size, dtype=np.int64)
    else:
        # Unbound start: every subject contributes weight 1, so the
        # first step is just the whole predicate slice grouped by
        # object — no per-subject range search needed.
        if is_bound(first.o):
            total = col.count_po(first.p, first.o)
            if total == 0:
                return 0
            nodes = np.array([first.o], dtype=np.int64)
            ways = np.array([total], dtype=np.int64)
        else:
            _, o_col = col.pred_slice(first.p)
            if o_col.size == 0:
                return 0
            nodes, ways = np.unique(o_col, return_counts=True)
        triples = triples[1:]

    # Float shadow of the frontier: int64 additions wrap silently, so
    # overflow is detected on the (monotone, non-wrapping) float copy
    # *before* trusting any int64 aggregate.
    shadow = ways.astype(np.float64)
    for tp in triples:
        if nodes.size == 0:
            return 0
        objs, lengths = col.sp_objects(nodes, tp.p)
        if objs.size == 0:
            return 0
        keep = lengths > 0
        if not keep.all():
            lengths = lengths[keep]
            ways, shadow = ways[keep], shadow[keep]
        if is_bound(tp.o):
            # Only walks stepping exactly onto the bound object survive;
            # membership per frontier node is one searchsorted pass.
            hit = objs == tp.o
            total_shadow = float(
                np.repeat(shadow, lengths)[hit].sum()
            )
            if total_shadow > _INT64_SAFE:
                return _count_chain_python(store, query)
            total = int(np.repeat(ways, lengths)[hit].sum())
            if total == 0:
                return 0
            nodes = np.array([tp.o], dtype=np.int64)
            ways = np.array([total], dtype=np.int64)
            shadow = np.array([total_shadow])
        else:
            nodes, inverse = np.unique(objs, return_inverse=True)
            shadow = np.bincount(
                inverse,
                weights=np.repeat(shadow, lengths),
                minlength=nodes.size,
            )
            if float(shadow.max(initial=0.0)) > _INT64_SAFE:
                return _count_chain_python(store, query)
            acc = np.zeros(nodes.size, dtype=np.int64)
            np.add.at(acc, inverse, np.repeat(ways, lengths))
            ways = acc
    if float(shadow.sum()) > _INT64_SAFE:
        return _count_chain_python(store, query)
    return int(ways.sum())


# ----------------------------------------------------------------------
# Reference implementations (scalar-probe, arbitrary-precision)
# ----------------------------------------------------------------------


def _count_star_python(
    store: TripleStore, query: QueryPattern
) -> Optional[int]:
    """Per-subject scalar-probe star counter (arbitrary precision).

    Exact with Python ints, so it cannot overflow; serves as the
    overflow fallback of :func:`count_star` and as the per-triple-probe
    reference that ``bench_store_throughput`` measures the vectorized
    path against.  Every probe is a scalar backend call — one binary
    search each — mirroring the original per-subject loop's work
    profile.
    """
    if not _star_applicable(query):
        return None
    backend = store.backend
    centre = query.triples[0].s
    if is_bound(centre):
        candidates: Iterable[int] = (int(centre),)
    else:
        best = min(
            query.triples,
            key=lambda tp: (
                backend.count_po(tp.p, tp.o)
                if is_bound(tp.o)
                else backend.predicate_count(tp.p)
            ),
        )
        if is_bound(best.o):
            candidates = backend.subjects_of(best.p, best.o).tolist()
        else:
            candidates = backend.predicate_subject_stats(best.p)[0].tolist()

    total = 0
    for s in candidates:
        product = 1
        for tp in query.triples:
            if is_bound(tp.o):
                if not backend.contains(s, tp.p, tp.o):
                    product = 0
                    break
            else:
                fanout = backend.count_sp(s, tp.p)
                if fanout == 0:
                    product = 0
                    break
                product *= fanout
        total += product
    return total


def _count_chain_python(
    store: TripleStore, query: QueryPattern
) -> Optional[int]:
    """Dict-frontier scalar-probe chain DP (see
    :func:`_count_star_python` for why it is kept)."""
    if not _chain_applicable(query):
        return None
    backend = store.backend
    triples = query.triples
    first = triples[0]
    frontier: Dict[int, int] = {}
    if is_bound(first.s):
        frontier[int(first.s)] = 1
    else:
        for s in backend.subjects().tolist():
            frontier[s] = 1

    for tp in triples:
        new_frontier: Dict[int, int] = {}
        for node, ways in frontier.items():
            objs = backend.objects_of(node, tp.p)
            if objs.size == 0:
                continue
            if is_bound(tp.o):
                # objs is sorted: scalar membership is one bisect.
                pos = int(np.searchsorted(objs, tp.o))
                if pos < objs.size and int(objs[pos]) == tp.o:
                    new_frontier[tp.o] = new_frontier.get(tp.o, 0) + ways
            else:
                for o in objs.tolist():
                    new_frontier[o] = new_frontier.get(o, 0) + ways
        frontier = new_frontier
        if not frontier:
            return 0
    return sum(frontier.values())


def count_query(store: TripleStore, query: QueryPattern) -> int:
    """Exact cardinality using the fastest applicable strategy."""
    if len(query.triples) == 1:
        tp = query.triples[0]
        if len(tp.variables) == len(set(tp.variables)):
            return store.count_pattern(tp)
        return matcher.count_bgp(store, query)
    topo = query.topology()
    if topo is Topology.STAR:
        result = count_star(store, query)
        if result is not None:
            return result
    if topo is Topology.CHAIN:
        result = count_chain(store, query)
        if result is not None:
            return result
    return matcher.count_bgp(store, query)
