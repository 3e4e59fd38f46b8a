"""Query decomposition for composite patterns (paper §IV, Fig. 1).

A query that mixes topologies (e.g. a star whose arm continues into a
chain) is decomposed into maximal star and chain components that the
trained models can answer; the component estimates are then combined
under a uniformity assumption on the join variables.

Decomposition strategy:

1. group triples by subject — subjects with >= 2 triples become star
   components;
2. stitch the remaining triples into maximal chains by following
   object->subject links;
3. leftover lone triples become single-triple components (answered
   exactly from the store's indexes, as any engine would).

Combination: for components ``C1..Cm`` joined on shared variables, the
estimate is ``prod card(Ci) / prod |dom(v)|`` with one divisor per extra
occurrence of each shared variable — the classic join-uniformity
correction with the node count as the domain size.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, Variable


def decompose(query: QueryPattern) -> List[QueryPattern]:
    """Split a composite query into star/chain/single components.

    Star and chain queries pass through unchanged.
    """
    return [c for c, _ in classified_components(query, query.topology())]


def classified_components(
    query: QueryPattern, topology: Topology
) -> List[Tuple[QueryPattern, Topology]]:
    """The components of *query*, each with its topology.

    *topology* is ``query.topology()``, which the caller has already
    computed; a component's topology follows from how it was built, so
    nothing is classified twice.
    """
    if topology is not Topology.COMPOSITE:
        return [(query, topology)]

    by_subject: Dict[object, List[TriplePattern]] = defaultdict(list)
    for tp in query.triples:
        by_subject[tp.s].append(tp)

    components: List[Tuple[QueryPattern, Topology]] = []
    leftovers: List[TriplePattern] = []
    for triples in by_subject.values():
        if len(triples) >= 2:
            components.append((QueryPattern(triples), Topology.STAR))
        else:
            leftovers.extend(triples)

    # Leftover triples have pairwise distinct subjects, so a stitched
    # chain of two or more is never also a star.
    for chain in _stitch_chains(leftovers):
        components.append(
            (chain, Topology.CHAIN if chain.size > 1 else Topology.SINGLE)
        )
    return components


def _stitch_chains(
    triples: Sequence[TriplePattern],
) -> List[QueryPattern]:
    """Greedily link triples into maximal chains via object->subject."""
    remaining = list(triples)
    chains: List[QueryPattern] = []
    while remaining:
        chain = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for i, tp in enumerate(remaining):
                if tp.s == chain[-1].o:
                    chain.append(remaining.pop(i))
                    grew = True
                    break
                if tp.o == chain[0].s:
                    chain.insert(0, remaining.pop(i))
                    grew = True
                    break
        chains.append(QueryPattern(chain))
    return chains


def shared_variables(
    components: Sequence[QueryPattern],
) -> Dict[Variable, int]:
    """Variables appearing in more than one component, with their
    component counts."""
    counts: Dict[Variable, int] = defaultdict(int)
    for component in components:
        for var in component.variables:
            counts[var] += 1
    return {v: c for v, c in counts.items() if c > 1}


def combine_estimates(
    store: TripleStore,
    components: Sequence[QueryPattern],
    estimates: Sequence[float],
) -> float:
    """Combine per-component estimates into one for the conjunction.

    Multiplies component cardinalities and divides by the node-domain
    size once per extra occurrence of each shared variable (uniform join
    selectivity ``1/|dom|``).
    """
    if len(components) != len(estimates):
        raise ValueError("components and estimates disagree")
    if not components:
        raise ValueError("nothing to combine")
    product = 1.0
    for estimate in estimates:
        product *= max(float(estimate), 0.0)
    domain = max(store.num_nodes, 1)
    for _, count in shared_variables(components).items():
        product /= float(domain) ** (count - 1)
    return product
