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
correction with the node count as the domain size.  The divisions run
in the variables' order of first occurrence, which fixes the bits of
the result.

Both halves compare and group terms by
:func:`~repro.rdf.terms.term_key` — a term id itself, a variable's
name — as :meth:`~repro.rdf.pattern.QueryPattern.is_star` does: equal
terms have equal keys, and a key compares and hashes without the
Python-level ``Variable.__eq__`` / ``__hash__``.
``LMKG._estimate_batch`` (:mod:`repro.core.framework`) decomposes each
composite query of a call once, with the topology it has already
computed, and routes the components through a route table local to
that call; nothing here or there is remembered between calls.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, Variable, term_key


def classified_components(
    query: QueryPattern, topology: Topology
) -> List[Tuple[QueryPattern, Topology]]:
    """The components of *query*, each with its topology.

    *topology* is ``query.topology()``, which the caller has already
    computed; a star, chain or single triple is its own only component,
    and a component's topology follows from how it was built, so
    nothing is classified twice.
    """
    if topology is not Topology.COMPOSITE:
        return [(query, topology)]

    by_subject: Dict[Union[int, str], List[TriplePattern]] = {}
    for tp in query.triples:
        subject = term_key(tp.s)
        group = by_subject.get(subject)
        if group is None:
            by_subject[subject] = [tp]
        else:
            group.append(tp)

    components: List[Tuple[QueryPattern, Topology]] = []
    leftovers: List[TriplePattern] = []
    for triples in by_subject.values():
        if len(triples) >= 2:
            components.append((QueryPattern(triples), Topology.STAR))
        else:
            leftovers.append(triples[0])

    # Leftover triples have pairwise distinct subjects, so a stitched
    # chain of two or more is never also a star.
    for chain in _stitch_chains(leftovers):
        components.append(
            (
                chain,
                Topology.CHAIN if len(chain.triples) > 1 else Topology.SINGLE,
            )
        )
    return components


def _stitch_chains(
    triples: Sequence[TriplePattern],
) -> List[QueryPattern]:
    """Greedily link triples into maximal chains via object->subject."""
    remaining = [(term_key(tp.s), term_key(tp.o), tp) for tp in triples]
    chains: List[QueryPattern] = []
    while remaining:
        head, tail, first = remaining.pop(0)
        chain = [first]
        grew = True
        while grew:
            grew = False
            for i, (subject, obj, tp) in enumerate(remaining):
                if subject == tail:
                    del remaining[i]
                    chain.append(tp)
                    tail = obj
                    grew = True
                    break
                if obj == head:
                    del remaining[i]
                    chain.insert(0, tp)
                    head = subject
                    grew = True
                    break
        chains.append(QueryPattern(chain))
    return chains


def shared_variables(
    components: Sequence[QueryPattern],
) -> Dict[Variable, int]:
    """Variables appearing in more than one component, with their
    component counts, in first-occurrence order.

    Variables are counted by key (their name), and each is keyed by its
    first occurrence.
    """
    #: name -> [first occurrence, number of components naming it]
    counts: Dict[str, list] = {}
    for component in components:
        #: this component's variables by name, in first-occurrence order
        named: Dict[str, Variable] = {}
        for tp in component.triples:
            for term in (tp.s, tp.p, tp.o):
                if isinstance(term, Variable):
                    named.setdefault(term_key(term), term)
        for name, var in named.items():
            entry = counts.get(name)
            if entry is None:
                counts[name] = [var, 1]
            else:
                entry[1] += 1
    return {var: count for var, count in counts.values() if count > 1}


def combine_estimates(
    store: TripleStore,
    components: Sequence[QueryPattern],
    estimates: Sequence[float],
) -> float:
    """Combine per-component estimates into one for the conjunction.

    Multiplies component cardinalities and divides by the node-domain
    size once per extra occurrence of each shared variable (uniform join
    selectivity ``1/|dom|``), in the variables' first-occurrence order.
    """
    if len(components) != len(estimates):
        raise ValueError("components and estimates disagree")
    if not components:
        raise ValueError("nothing to combine")
    product = 1.0
    for estimate in estimates:
        product *= max(float(estimate), 0.0)
    domain = max(store.num_nodes, 1)
    for count in shared_variables(components).values():
        product /= float(domain) ** (count - 1)
    return product
