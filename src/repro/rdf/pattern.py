"""Basic graph patterns (BGPs): query graphs over triple patterns.

A :class:`QueryPattern` bundles the triple patterns of a SPARQL
WHERE-clause and knows its topology.  LMKG focuses on the two most common
topologies in real query logs (Bonifati et al., VLDB 2017): *star* queries,
whose triples share a single centre subject, and *chain* queries, where the
object of each triple is the subject of the next.  Everything else is
*composite* and gets decomposed before estimation
(:mod:`repro.core.decomposition`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.rdf.terms import (
    PatternTerm,
    TriplePattern,
    Variable,
    is_bound,
    term_key,
)


class Topology(enum.Enum):
    """Recognised query-graph shapes."""

    STAR = "star"
    CHAIN = "chain"
    SINGLE = "single"
    COMPOSITE = "composite"


@dataclass(frozen=True, slots=True)
class QueryPattern:
    """An ordered collection of triple patterns forming one query."""

    triples: Tuple[TriplePattern, ...]

    def __init__(self, triples: Sequence[TriplePattern]) -> None:
        object.__setattr__(self, "triples", tuple(triples))
        if not self.triples:
            raise ValueError("a query pattern needs at least one triple")

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    @property
    def size(self) -> int:
        """Query size = number of triple patterns, as used in the paper."""
        return len(self.triples)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All distinct variables, in first-occurrence order."""
        seen: Dict[Variable, None] = {}
        for tp in self.triples:
            for v in tp.variables:
                seen.setdefault(v, None)
        return tuple(seen.keys())

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def topology(self) -> Topology:
        """Classify this pattern as star, chain, single, or composite."""
        if len(self.triples) == 1:
            return Topology.SINGLE
        if self.is_star():
            return Topology.STAR
        if self.is_chain():
            return Topology.CHAIN
        return Topology.COMPOSITE

    def is_star(self) -> bool:
        """True when all triples share one centre subject (term or var)."""
        triples = self.triples
        if len(triples) < 2:
            return False
        # Terms compare by key (repro.rdf.terms.term_key): this runs
        # once per estimated query.
        centre = term_key(triples[0].s)
        for tp in triples[1:]:
            if term_key(tp.s) != centre:
                return False
        return True

    def is_chain(self) -> bool:
        """True when triples form a chain: object i equals subject i+1."""
        triples = self.triples
        if len(triples) < 2:
            return False
        link = term_key(triples[0].o)
        for tp in triples[1:]:
            if term_key(tp.s) != link:
                return False
            link = term_key(tp.o)
        return True

    # ------------------------------------------------------------------
    # Node / edge orderings for the encoders (Section V of the paper)
    # ------------------------------------------------------------------

    def node_order(self) -> List[PatternTerm]:
        """Distinct node terms (subjects/objects) in traversal order.

        For a star this yields [centre, o1, o2, ...]; for a chain
        [s1, o1(=s2), o2, ...].  For composite patterns the order follows
        first occurrence across triples, which is exactly the "ordering of
        the nodes in the query" the SG-Encoding requires.
        """
        order: Dict[PatternTerm, None] = {}
        for tp in self.triples:
            order.setdefault(tp.s, None)
            order.setdefault(tp.o, None)
        return list(order.keys())

    def join_count(self) -> int:
        """Number of joins = size - 1 for connected star/chain patterns."""
        return max(0, len(self.triples) - 1)

    def canonical_key(self) -> Tuple:
        """A hashable key identifying the pattern up to variable naming.

        Variables are replaced by their index in first-occurrence order so
        that two patterns differing only in variable names compare equal.
        Used for deduplicating sampled training queries.
        """
        var_ids: Dict[Variable, int] = {}

        def norm(term: PatternTerm):
            if isinstance(term, Variable):
                if term not in var_ids:
                    var_ids[term] = len(var_ids)
                return ("var", var_ids[term])
            return ("term", term)

        return tuple(
            (norm(tp.s), norm(tp.p), norm(tp.o)) for tp in self.triples
        )

    def __repr__(self) -> str:
        inner = " . ".join(repr(tp) for tp in self.triples)
        return f"QueryPattern[{inner}]"

    def __reduce__(self):
        # Pickles as a constructor call, like the terms it holds
        # (see the repro.rdf.terms module docstring).
        return (self.__class__, (self.triples,))


def star_pattern(
    centre: PatternTerm, pairs: Sequence[Tuple[PatternTerm, PatternTerm]]
) -> QueryPattern:
    """Build a subject-star query from a centre and (predicate, object) pairs."""
    return QueryPattern(
        [TriplePattern(centre, p, o) for p, o in pairs]
    )


def chain_pattern(terms: Sequence[PatternTerm]) -> QueryPattern:
    """Build a chain query from the alternating node/predicate term list.

    *terms* must look like ``[n1, p1, n2, p2, ..., pk, nk+1]`` — the same
    flattened form the paper uses for the autoregressive factorisation.
    """
    if len(terms) < 3 or len(terms) % 2 == 0:
        raise ValueError(
            "chain terms must alternate node/predicate/node/... "
            f"(odd length >= 3, got {len(terms)})"
        )
    triples = []
    for i in range(0, len(terms) - 2, 2):
        triples.append(TriplePattern(terms[i], terms[i + 1], terms[i + 2]))
    return QueryPattern(triples)
