"""Core RDF vocabulary: terms, variables, triples, and triple patterns.

The library works with *dictionary-encoded* knowledge graphs: every URI or
literal is mapped to a small integer id (see :mod:`repro.rdf.dictionary`).
Inside queries, positions that are not bound to a term are held by
:class:`Variable` objects.  A :class:`TriplePattern` is a triple whose
positions may be variables; a fully bound pattern is just a triple.

Variables, triple patterns and query patterns
(:class:`~repro.rdf.pattern.QueryPattern`) are slotted dataclasses:
their attributes are read once or more per estimated query, and a slot
reads faster than an instance dict (which unpickling, as the serving
pool's workers do, would materialise).  Each pickles as a call of its
constructor (``__reduce__``), which is smaller and faster than the
state methods a slotted dataclass otherwise generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union


@dataclass(frozen=True, order=True, slots=True)
class Variable:
    """An unbound SPARQL variable, e.g. ``?x``.

    Variables compare and hash by name, so two patterns mentioning ``?x``
    share the binding during matching.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if self.name.startswith("?"):
            # Normalise "?x" to "x" so Variable("?x") == Variable("x").
            object.__setattr__(self, "name", self.name[1:])

    def __repr__(self) -> str:
        return f"?{self.name}"

    def __reduce__(self):
        return (self.__class__, (self.name,))


#: A pattern position: either a dictionary-encoded term id or a variable.
PatternTerm = Union[int, Variable]

#: A fully bound, dictionary-encoded triple.
Triple = Tuple[int, int, int]


def term_key(term: PatternTerm) -> Union[int, str]:
    """The key *term* compares and hashes by: a term id itself, a
    variable's name.

    Equal terms have equal keys (variables compare by name), and an id
    never equals a name.  Comparing or hashing keys skips the
    Python-level ``Variable.__eq__`` / ``__hash__``, so the topology and
    decomposition code that runs once per estimated query works on keys.
    """
    return term.name if isinstance(term, Variable) else term


def is_bound(term: PatternTerm) -> bool:
    """Return True when *term* is a concrete term id, not a variable."""
    return not isinstance(term, Variable)


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A single SPARQL triple pattern ``(s, p, o)``.

    Each position holds either an integer term id or a :class:`Variable`.
    """

    s: PatternTerm
    p: PatternTerm
    o: PatternTerm

    def __iter__(self) -> Iterator[PatternTerm]:
        yield self.s
        yield self.p
        yield self.o

    @property
    def is_fully_bound(self) -> bool:
        """True when no position is a variable."""
        return all(is_bound(t) for t in self)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """The variables of this pattern, in (s, p, o) position order."""
        return tuple(t for t in self if isinstance(t, Variable))

    def bind(self, bindings: dict) -> "TriplePattern":
        """Return a copy with variables replaced from *bindings* when present.

        Variables missing from *bindings* stay unbound.
        """

        def resolve(term: PatternTerm) -> PatternTerm:
            if isinstance(term, Variable) and term in bindings:
                return bindings[term]
            return term

        return TriplePattern(resolve(self.s), resolve(self.p), resolve(self.o))

    def as_triple(self) -> Triple:
        """Return the pattern as a concrete triple.

        Raises:
            ValueError: if any position is still a variable.
        """
        if not self.is_fully_bound:
            raise ValueError(f"pattern {self} still has unbound variables")
        return (self.s, self.p, self.o)  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"({self.s} {self.p} {self.o})"

    def __reduce__(self):
        return (self.__class__, (self.s, self.p, self.o))


def pattern(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> TriplePattern:
    """Convenience constructor; strings are interpreted as variable names."""

    def coerce(t) -> PatternTerm:
        if isinstance(t, str):
            return Variable(t)
        return t

    return TriplePattern(coerce(s), coerce(p), coerce(o))
