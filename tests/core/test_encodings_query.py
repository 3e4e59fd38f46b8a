"""Tests for the pattern-bound and SG query encodings."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from repro.core.encoders import (
    encode_binary,
    encode_one_hot,
    make_encoders,
)
from repro.core.pattern_bound import PatternBoundEncoder
from repro.core.sg_encoding import SGEncoding
from repro.rdf.pattern import (
    QueryPattern,
    Topology,
    chain_pattern,
    star_pattern,
)
from repro.rdf.terms import TriplePattern, Variable, is_bound


def v(name):
    return Variable(name)


@pytest.fixture
def encoders():
    return make_encoders(31, 7, "binary")  # 5-bit nodes, 3-bit predicates


class TestPatternBound:
    def test_width_formula(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 3, nodes, preds)
        assert enc.width == 5 + 3 * (3 + 5)

    def test_star_roundtrip_structure(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 2, nodes, preds)
        query = star_pattern(v("x"), [(1, 9), (2, v("y"))])
        vec = enc.encode(query)
        assert vec.shape == (enc.width,)
        # Subject unbound -> first 5 bits zero.
        assert np.all(vec[:5] == 0)

    def test_triple_order_canonicalised(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 2, nodes, preds)
        q1 = star_pattern(v("x"), [(1, 9), (2, 11)])
        q2 = star_pattern(v("x"), [(2, 11), (1, 9)])
        assert np.array_equal(enc.encode(q1), enc.encode(q2))

    def test_chain_preserves_walk_order(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("chain", 2, nodes, preds)
        q1 = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        q2 = chain_pattern([v("a"), 2, v("b"), 1, v("c")])
        assert not np.array_equal(enc.encode(q1), enc.encode(q2))

    def test_smaller_query_padded(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 4, nodes, preds)
        query = star_pattern(v("x"), [(1, 9), (2, 11)])
        vec = enc.encode(query)
        pad = 2 * (3 + 5)
        assert np.all(vec[-pad:] == 0)

    def test_oversized_query_rejected(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 2, nodes, preds)
        query = star_pattern(
            v("x"), [(1, v("a")), (2, v("b")), (3, v("c"))]
        )
        with pytest.raises(ValueError):
            enc.encode(query)

    def test_wrong_topology_rejected(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 3, nodes, preds)
        with pytest.raises(ValueError):
            enc.encode(chain_pattern([v("a"), 1, v("b"), 2, v("c")]))

    def test_distinct_queries_distinct_vectors(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 2, nodes, preds)
        q1 = star_pattern(v("x"), [(1, 9), (2, 11)])
        q2 = star_pattern(v("x"), [(1, 9), (2, 12)])
        q3 = star_pattern(v("x"), [(1, 9), (2, v("y"))])
        vecs = [enc.encode(q) for q in (q1, q2, q3)]
        assert not np.array_equal(vecs[0], vecs[1])
        assert not np.array_equal(vecs[0], vecs[2])

    def test_batch_shape(self, encoders):
        nodes, preds = encoders
        enc = PatternBoundEncoder("star", 2, nodes, preds)
        queries = [
            star_pattern(v("x"), [(1, 9), (2, 11)]),
            star_pattern(v("x"), [(1, v("y")), (2, 11)]),
        ]
        assert enc.encode_batch(queries).shape == (2, enc.width)


class TestSGEncoding:
    def test_width_components(self, encoders):
        nodes, preds = encoders
        enc = SGEncoding(3, 2, nodes, preds)
        assert enc.a_width == 3 * 3 * 2
        assert enc.x_width == 3 * 5
        assert enc.e_width == 2 * 3
        assert enc.width == enc.a_width + enc.x_width + enc.e_width

    def test_for_query_size(self, encoders):
        nodes, preds = encoders
        enc = SGEncoding.for_query_size(3, nodes, preds)
        assert enc.max_nodes == 4
        assert enc.max_edges == 3

    def test_paper_figure2_star(self, encoders):
        """The Fig. 2 example: ?Book :hasAuthor :StephenKing ;
        :genre :Horror — A has edges node0->node1 (edge 0) and
        node0->node2 (edge 1)."""
        nodes, preds = encoders
        enc = SGEncoding(3, 2, nodes, preds)
        query = star_pattern(v("book"), [(3, 1), (2, 4)])
        a, x, e = enc.components(query)
        assert a[0, 1, 0] == 1.0  # first edge: centre -> first object
        assert a[0, 2, 1] == 1.0  # second edge: centre -> second object
        assert a.sum() == 2.0
        # Node 0 is the unbound book -> zero row in X.
        assert np.all(x[0] == 0)

    def test_star_and_chain_distinguished_by_a(self, encoders):
        """The adjacency tensor separates topologies even when terms
        coincide — the core claim of the SG-Encoding."""
        nodes, preds = encoders
        enc = SGEncoding(3, 2, nodes, preds)
        star = star_pattern(v("x"), [(1, v("y")), (2, v("z"))])
        chain = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        a_star, _, e_star = enc.components(star)
        a_chain, _, e_chain = enc.components(chain)
        assert np.array_equal(e_star, e_chain)
        assert not np.array_equal(a_star, a_chain)

    def test_chain_adjacency_path(self, encoders):
        nodes, preds = encoders
        enc = SGEncoding(3, 2, nodes, preds)
        chain = chain_pattern([v("a"), 1, v("b"), 2, v("c")])
        a, _, _ = enc.components(chain)
        assert a[0, 1, 0] == 1.0
        assert a[1, 2, 1] == 1.0

    def test_too_many_nodes_rejected(self, encoders):
        nodes, preds = encoders
        enc = SGEncoding(2, 2, nodes, preds)
        with pytest.raises(ValueError):
            enc.encode(star_pattern(v("x"), [(1, v("y")), (2, v("z"))]))

    def test_too_many_edges_rejected(self, encoders):
        nodes, preds = encoders
        enc = SGEncoding(4, 1, nodes, preds)
        with pytest.raises(ValueError):
            enc.encode(star_pattern(v("x"), [(1, v("y")), (2, v("z"))]))

    def test_flatten_consistent_with_components(self, encoders):
        nodes, preds = encoders
        enc = SGEncoding(3, 2, nodes, preds)
        query = star_pattern(v("x"), [(1, 9), (2, v("y"))])
        a, x, e = enc.components(query)
        flat = enc.encode(query)
        assert np.array_equal(
            flat, np.concatenate([a.ravel(), x.ravel(), e.ravel()])
        )

    def test_self_loop_representable(self, encoders):
        """(?x, p, ?x) — a self-join the one-hot-free encodings support."""
        from repro.rdf.pattern import QueryPattern
        from repro.rdf.terms import TriplePattern

        nodes, preds = encoders
        enc = SGEncoding(3, 2, nodes, preds)
        query = QueryPattern([TriplePattern(v("x"), 1, v("x"))])
        a, _, _ = enc.components(query)
        assert a[0, 0, 0] == 1.0


# ----------------------------------------------------------------------
# encode_batch against the scalar term-by-term oracle
# ----------------------------------------------------------------------

NODES, PREDS = 30, 7
SCALAR = {"binary": encode_binary, "one_hot": encode_one_hot}
kinds = st.sampled_from(sorted(SCALAR))


def _node(name):
    """A bound node id, the variable *name*, or the shared centre ?c
    (so one node can recur at several positions)."""
    return st.one_of(
        st.integers(1, NODES), st.just(v(name)), st.just(v("c"))
    )


def _pred(name):
    return st.one_of(st.integers(1, PREDS), st.just(v(name)))


@st.composite
def stars(draw, max_size=3):
    size = draw(st.integers(1, max_size))
    return star_pattern(
        draw(_node("c")),
        [(draw(_pred(f"p{i}")), draw(_node(f"o{i}"))) for i in range(size)],
    )


@st.composite
def chains(draw, max_size=3):
    size = draw(st.integers(1, max_size))
    terms = [draw(_node("n0"))]
    for i in range(size):
        terms += [draw(_pred(f"q{i}")), draw(_node(f"n{i + 1}"))]
    return chain_pattern(terms)


@st.composite
def composites(draw):
    star, chain = draw(stars()), draw(chains())
    return QueryPattern(list(star.triples) + list(chain.triples))


def sg_oracle(enc, query, kind):
    """[A | X | E] of one query, term by term through the scalar
    encoders."""
    scalar = SCALAR[kind]
    order = query.node_order()
    a = np.zeros((enc.max_nodes, enc.max_nodes, enc.max_edges))
    x = np.zeros((enc.max_nodes, enc.nodes.width))
    e = np.zeros((enc.max_edges, enc.predicates.width))
    for l, tp in enumerate(query.triples):
        a[order.index(tp.s), order.index(tp.o), l] = 1.0
        e[l] = scalar(tp.p, PREDS)
    for i, term in enumerate(order):
        x[i] = scalar(term, NODES)
    return np.concatenate([a.ravel(), x.ravel(), e.ravel()])


def pattern_oracle(enc, query, kind):
    """The pattern-bound vector of one query, term by term."""
    scalar = SCALAR[kind]
    pairs = [(tp.p, tp.o) for tp in query.triples]
    if enc.topology == "star":
        pairs.sort(
            key=lambda pair: [
                (0, t) if is_bound(t) else (1, 0) for t in pair
            ]
        )
    parts = [scalar(query.triples[0].s, NODES)]
    for p, o in pairs:
        parts += [scalar(p, PREDS), scalar(o, NODES)]
    vec = np.zeros(enc.width)
    flat = np.concatenate(parts)
    vec[: flat.size] = flat
    return vec


def _check_batch(enc, queries, expected):
    got = enc.encode_batch(queries)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.stack(expected))
    for i, query in enumerate(queries):
        # a row does not depend on what else is in the batch
        assert np.array_equal(enc.encode_batch([query])[0], got[i])
        assert np.array_equal(enc.encode(query), got[i])


def _accepted(enc, queries):
    """The queries *enc* encodes without complaint."""
    if isinstance(enc, SGEncoding):
        return list(queries)
    return [
        q for q in queries
        if q.topology() in (Topology.STAR, Topology.SINGLE)
    ]


#: single-triple queries with one id outside its domain, and the message
#: the encoders raise for it
BAD_IDS = st.sampled_from(
    [
        (TriplePattern(NODES + 1, 1, v("o")), f"term id {NODES + 1} outside"),
        (TriplePattern(v("s"), 1, 0), "term id 0 outside"),
        (TriplePattern(v("s"), 1, -3), "term id -3 outside"),
        (TriplePattern(v("s"), PREDS + 1, v("o")), f"term id {PREDS + 1} outside"),
        (TriplePattern(v("s"), 0, v("o")), "term id 0 outside"),
    ]
)


class TestBatchEncodingProperties:
    @given(
        st.lists(st.one_of(stars(), chains(), composites()), min_size=1,
                 max_size=6),
        kinds,
    )
    @settings(max_examples=80, deadline=None)
    def test_sg_batch_equals_scalar_oracle(self, queries, kind):
        nodes, preds = make_encoders(NODES, PREDS, kind)
        # Composites reach 6 triples over 8 nodes: every row is padded.
        enc = SGEncoding(9, 7, nodes, preds)
        _check_batch(enc, queries, [sg_oracle(enc, q, kind) for q in queries])

    @given(st.data(), st.sampled_from(["star", "chain"]), kinds)
    @settings(max_examples=80, deadline=None)
    def test_pattern_bound_batch_equals_scalar_oracle(
        self, data, topology, kind
    ):
        shape = stars() if topology == "star" else chains()
        queries = data.draw(st.lists(shape, min_size=1, max_size=6))
        # A chain whose nodes coincide classifies as a star.
        expected = Topology.STAR if topology == "star" else Topology.CHAIN
        assume(
            all(q.topology() in (expected, Topology.SINGLE) for q in queries)
        )
        nodes, preds = make_encoders(NODES, PREDS, kind)
        enc = PatternBoundEncoder(topology, 4, nodes, preds)
        _check_batch(
            enc, queries, [pattern_oracle(enc, q, kind) for q in queries]
        )

    @given(
        st.lists(st.one_of(stars(), chains()), max_size=4),
        st.integers(0, 4),
        BAD_IDS,
        kinds,
    )
    @STANDARD_SETTINGS
    def test_out_of_domain_id_anywhere_in_batch_raises(
        self, queries, position, bad, kind
    ):
        triple, message = bad
        nodes, preds = make_encoders(NODES, PREDS, kind)
        for enc in (
            SGEncoding(5, 4, nodes, preds),
            PatternBoundEncoder("star", 4, nodes, preds),
        ):
            batch = _accepted(enc, queries)
            batch.insert(min(position, len(batch)), QueryPattern([triple]))
            with pytest.raises(ValueError, match=re.escape(message)):
                enc.encode_batch(batch)

    @given(
        st.lists(st.one_of(stars(), chains()), max_size=4),
        st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_over_wide_query_anywhere_in_batch_raises(
        self, queries, position
    ):
        nodes, preds = make_encoders(NODES, PREDS, "binary")
        sg = SGEncoding(4, 4, nodes, preds)
        star_encoder = PatternBoundEncoder("star", 4, nodes, preds)
        # five nodes over four edges; two nodes over five edges
        long_chain = chain_pattern(
            [v("a"), 1, v("b"), 1, v("d"), 1, v("e"), 1, v("f")]
        )
        fat_star = star_pattern(v("x"), [(p, 9) for p in range(1, 6)])
        for enc, wide, message in (
            (sg, long_chain, "query has 5 nodes, encoder holds 4"),
            (sg, fat_star, "query has 5 edges, encoder holds 4"),
            (star_encoder, fat_star, "query size 5 exceeds encoder max 4"),
            (star_encoder, long_chain, "star encoder got a chain query"),
        ):
            batch = _accepted(enc, queries)
            batch.insert(min(position, len(batch)), wide)
            with pytest.raises(ValueError, match=re.escape(message)):
                enc.encode_batch(batch)
