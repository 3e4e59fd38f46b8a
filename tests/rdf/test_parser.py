"""Tests for N-Triples IO and the SPARQL-subset parser."""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rdf import (
    ParseError,
    TripleStore,
    count_bgp,
    format_sparql,
    load_ntriples,
    parse_sparql,
    write_ntriples,
)
from repro.rdf.parser import _tokenize, parse_ntriples_line
from repro.rdf.terms import Variable
from strategies import query_texts, vocab_sample


class TestNTriplesLine:
    def test_uris(self):
        got = parse_ntriples_line("<a> <p> <b> .")
        assert got == ("a", "p", "b")

    def test_literal_object(self):
        got = parse_ntriples_line('<a> <p> "hello" .')
        assert got == ("a", "p", '"hello"')

    def test_typed_literal(self):
        got = parse_ntriples_line(
            '<a> <p> "42"^^<http://www.w3.org/2001/XMLSchema#int> .'
        )
        assert got == ("a", "p", '"42"')

    def test_language_tag(self):
        assert parse_ntriples_line('<a> <p> "hi"@en .') == ("a", "p", '"hi"')

    def test_blank_node(self):
        assert parse_ntriples_line("_:b1 <p> <c> .") == ("_:b1", "p", "c")

    def test_comment_and_blank_skipped(self):
        assert parse_ntriples_line("# comment") is None
        assert parse_ntriples_line("   ") is None

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<a> <p> <b>")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("a p b .")


class TestNTriplesRoundtrip:
    def test_write_then_load(self, tmp_path):
        triples = [
            ("s1", "p1", "o1"),
            ("s1", "p2", '"lit"'),
            ("s2", "p1", "o1"),
        ]
        path = tmp_path / "data.nt"
        assert write_ntriples(path, triples) == 3
        store = load_ntriples(path)
        assert len(store) == 3
        back = {
            store.dictionary.decode_triple(t) for t in store
        }
        assert back == set(triples)


#: (text, exact token list) for the SPARQL scanner.
TOKENS = [
    ("", []),
    (" \t\n ", []),
    (
        ' SELECT ?x WHERE { ?x <p> "a\\"b" . } ',
        [
            ("word", "SELECT"), ("var", "x"), ("word", "WHERE"),
            ("punct", "{"), ("var", "x"), ("term", "p"),
            ("term", '"a\\"b"'), ("punct", "."), ("punct", "}"),
        ],
    ),
    (
        '"tab\\t and \\\\ backslash"',
        [("term", '"tab\\t and \\\\ backslash"')],
    ),
    (
        "ex:name foaf:knows rdf:type-x _:b1",
        [
            ("word", "ex:name"), ("word", "foaf:knows"),
            ("word", "rdf:type-x"), ("word", "_:b1"),
        ],
    ),
    (
        "{}.;,",
        [
            ("punct", "{"), ("punct", "}"), ("punct", "."),
            ("punct", ";"), ("punct", ","),
        ],
    ),
    ("?a<b>?c", [("var", "a"), ("term", "b"), ("var", "c")]),
    (
        "?x\u00a0<p>\u2003?y",
        [("var", "x"), ("term", "p"), ("var", "y")],
    ),
    ("<>", [("term", "")]),
    ('""', [("term", '""')]),
]

#: (text, exact ParseError message) for the SPARQL scanner.
TOKEN_ERRORS = [
    ("#x", "unexpected character '#' at 0"),
    ("  @", "unexpected character '@' at 2"),
    ("?x <p> | ?y", "unexpected character '|' at 7"),
    ("?x <p> ?y .!", "unexpected character '!' at 11"),
    ("<unterminated", "unexpected character '<' at 0"),
    ('"open literal', "unexpected character '\"' at 0"),
    ("?", "unexpected character '?' at 0"),
    ("?1", "unexpected character '?' at 0"),
]


class TestTokenizer:
    @pytest.mark.parametrize("text, tokens", TOKENS)
    def test_tokens(self, text, tokens):
        assert _tokenize(text) == tokens

    @pytest.mark.parametrize("text, message", TOKEN_ERRORS)
    def test_errors(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            _tokenize(text)
        assert str(excinfo.value) == message

    def test_trailing_whitespace_is_linear(self):
        started = time.perf_counter()
        assert _tokenize("?x" + " " * 200_000) == [("var", "x")]
        assert time.perf_counter() - started < 1.0


class TestSparqlParser:
    def test_star_query(self, books_store):
        query = parse_sparql(
            "SELECT ?x WHERE { ?x <hasAuthor> <StephenKing> . "
            "?x <genre> <Horror> . }",
            books_store.dictionary,
        )
        assert query.size == 2
        assert query.is_star()
        assert count_bgp(books_store, query) == 2

    def test_semicolon_shorthand(self, books_store):
        query = parse_sparql(
            "SELECT ?x WHERE { ?x <hasAuthor> <StephenKing> ; "
            "<genre> <Horror> . }",
            books_store.dictionary,
        )
        assert query.size == 2
        assert query.is_star()

    def test_chain_query(self, books_store):
        query = parse_sparql(
            "SELECT ?x ?y WHERE { ?x <hasAuthor> ?y . ?y <bornIn> <USA> . }",
            books_store.dictionary,
        )
        assert query.is_chain()
        assert count_bgp(books_store, query) == 2

    def test_unknown_term_rejected(self, books_store):
        with pytest.raises(ParseError):
            parse_sparql(
                "SELECT ?x WHERE { ?x <hasAuthor> <NoSuchAuthor> . }",
                books_store.dictionary,
            )

    def test_missing_braces_rejected(self, books_store):
        with pytest.raises(ParseError):
            parse_sparql("SELECT ?x WHERE ?x <p> <o> .", books_store.dictionary)

    def test_empty_where_rejected(self, books_store):
        with pytest.raises(ParseError):
            parse_sparql("SELECT ?x WHERE { }", books_store.dictionary)

    def test_variables_normalised(self, books_store):
        query = parse_sparql(
            "SELECT ?x WHERE { ?x <genre> <Horror> . }",
            books_store.dictionary,
        )
        assert query.variables == (Variable("x"),)


class TestFormatter:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_roundtrip_through_text(self, books_store, data):
        dictionary = books_store.dictionary
        nodes, predicates = vocab_sample(books_store)
        texts = [
            "SELECT ?x ?y WHERE { ?x <hasAuthor> ?y . ?y <bornIn> <USA> . }",
            data.draw(query_texts(nodes, predicates), label="text"),
        ]
        for text in texts:
            original = parse_sparql(text, dictionary)
            reparsed = parse_sparql(
                format_sparql(original, dictionary), dictionary
            )
            assert reparsed.canonical_key() == original.canonical_key()
