"""Lexical IO: N-Triples files and a SPARQL-subset query parser.

The parser covers the fragment LMKG estimates over — SELECT queries whose
WHERE clause is a conjunction of triple patterns with URI terms and
variables — which is what the examples and tests need to read realistic
query text.  It is intentionally not a full SPARQL 1.1 parser.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

from repro.rdf.dictionary import GraphDictionary
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import PatternTerm, TriplePattern, Variable


class ParseError(ValueError):
    """Raised when query or data text cannot be parsed."""


# ----------------------------------------------------------------------
# N-Triples
# ----------------------------------------------------------------------

_NT_TERM = re.compile(
    r"""<(?P<uri>[^>]*)>          # URI
      | "(?P<lit>(?:[^"\\]|\\.)*)"(?:\^\^<[^>]*>|@[A-Za-z0-9-]+)?  # literal
      | _:(?P<bnode>\S+)          # blank node
    """,
    re.VERBOSE,
)


def parse_ntriples_line(line: str) -> Union[Tuple[str, str, str], None]:
    """Parse one N-Triples line into lexical (s, p, o), or None for blanks.

    Literals keep their quoted lexical form (without datatype/lang tag);
    blank nodes keep the ``_:label`` form.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    terms: List[str] = []
    pos = 0
    for _ in range(3):
        match = _NT_TERM.match(stripped, pos)
        if match is None:
            raise ParseError(f"malformed N-Triples line: {line!r}")
        if match.group("uri") is not None:
            terms.append(match.group("uri"))
        elif match.group("lit") is not None:
            terms.append('"' + match.group("lit") + '"')
        else:
            terms.append("_:" + match.group("bnode"))
        pos = match.end()
        while pos < len(stripped) and stripped[pos] in " \t":
            pos += 1
    if pos >= len(stripped) or stripped[pos] != ".":
        raise ParseError(f"missing terminating '.' in: {line!r}")
    return (terms[0], terms[1], terms[2])


def read_ntriples(path: Union[str, Path]) -> Iterator[Tuple[str, str, str]]:
    """Stream lexical triples from an N-Triples file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            parsed = parse_ntriples_line(line)
            if parsed is not None:
                yield parsed


def load_ntriples(path: Union[str, Path]) -> TripleStore:
    """Load an N-Triples file into a dictionary-encoded store."""
    return TripleStore.from_lexical(read_ntriples(path))


def write_ntriples(
    path: Union[str, Path], triples: Iterable[Tuple[str, str, str]]
) -> int:
    """Write lexical triples as N-Triples; returns the line count."""

    def render(term: str) -> str:
        if term.startswith('"') or term.startswith("_:"):
            return term
        return f"<{term}>"

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for s, p, o in triples:
            handle.write(f"{render(s)} {render(p)} {render(o)} .\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# SPARQL subset
# ----------------------------------------------------------------------

#: one token after optional whitespace; ``bad`` catches the first
#: character no token starts with.  Scans end before trailing
#: whitespace: there every alternative fails after ``\s*``, which would
#: back off and retry from each position of the run (quadratic).
_TOKEN = re.compile(
    r"""\s*(?:
        \?(?P<var>[A-Za-z_][A-Za-z0-9_]*)
      | <(?P<uri>[^>]*)>
      | (?P<lit>"(?:[^"\\]|\\.)*")
      | (?P<punct>[{}.;,])
      | (?P<word>[A-Za-z_:][A-Za-z0-9_:\-]*)
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

#: token kind of each ``_TOKEN`` group.
_KINDS = {
    "var": "var",
    "uri": "term",
    "lit": "term",
    "punct": "punct",
    "word": "word",
}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    for match in _TOKEN.finditer(text, 0, len(text.rstrip())):
        group = match.lastgroup
        if group == "bad":
            raise ParseError(
                f"unexpected character {match[group]!r} at "
                f"{match.start(group)}"
            )
        tokens.append((_KINDS[group], match[group]))
    return tokens


def parse_sparql(
    text: str, dictionary: GraphDictionary
) -> QueryPattern:
    """Parse a SELECT query's WHERE clause into a :class:`QueryPattern`.

    Supported form::

        SELECT ?x ?y WHERE { ?x <p> <o> . ?x <q> ?y ; <r> ?z . }

    Semicolon shorthand (shared subject) and prefixed bare words as terms
    are accepted.  Terms are resolved against *dictionary*; unknown terms
    raise :class:`ParseError` because a term absent from the graph cannot
    be dictionary-encoded (its true cardinality is zero).
    """
    tokens = _tokenize(text)
    try:
        brace_open = next(
            i for i, (k, v) in enumerate(tokens)
            if k == "punct" and v == "{"
        )
        brace_close = max(
            i for i, (k, v) in enumerate(tokens)
            if k == "punct" and v == "}"
        )
    except (StopIteration, ValueError):
        raise ParseError("query must contain a braced WHERE clause")
    body = tokens[brace_open + 1: brace_close]

    def resolve(kind: str, value: str, position: str) -> PatternTerm:
        if kind == "var":
            return Variable(value)
        table = (
            dictionary.predicates if position == "p" else dictionary.nodes
        )
        term_id = table.lookup(value)
        if term_id is None:
            raise ParseError(
                f"term {value!r} does not occur in the graph ({position})"
            )
        return term_id

    triples: List[TriplePattern] = []
    idx = 0
    current_subject: PatternTerm = None  # type: ignore[assignment]
    expect_subject = True
    while idx < len(body):
        if expect_subject:
            kind, value = body[idx]
            if kind == "punct":
                raise ParseError(f"expected subject, got {value!r}")
            current_subject = resolve(kind, value, "s")
            idx += 1
        if idx + 1 >= len(body):
            raise ParseError("truncated triple pattern")
        p_kind, p_value = body[idx]
        o_kind, o_value = body[idx + 1]
        predicate = resolve(p_kind, p_value, "p")
        obj = resolve(o_kind, o_value, "o")
        triples.append(TriplePattern(current_subject, predicate, obj))
        idx += 2
        if idx < len(body):
            kind, value = body[idx]
            if kind != "punct" or value not in ".;":
                raise ParseError(f"expected '.' or ';', got {value!r}")
            expect_subject = value == "."
            idx += 1
        else:
            expect_subject = True
    if not triples:
        raise ParseError("empty WHERE clause")
    return QueryPattern(triples)


def format_sparql(
    query: QueryPattern, dictionary: GraphDictionary
) -> str:
    """Render a query pattern back to SPARQL text (for examples/logs)."""

    def render(term: PatternTerm, position: str) -> str:
        if isinstance(term, Variable):
            return f"?{term.name}"
        table = (
            dictionary.predicates if position == "p" else dictionary.nodes
        )
        lexical = table.decode(term)
        if lexical.startswith('"'):
            return lexical
        return f"<{lexical}>"

    variables = " ".join(f"?{v.name}" for v in query.variables) or "*"
    lines = [
        "  "
        + " ".join(
            (
                render(tp.s, "s"),
                render(tp.p, "p"),
                render(tp.o, "o"),
            )
        )
        + " ."
        for tp in query.triples
    ]
    return f"SELECT {variables} WHERE {{\n" + "\n".join(lines) + "\n}"
