"""Hypothesis strategies for generative query fuzzing.

The fuzz suite (``tests/replay/test_fuzz_contract.py``) round-trips
arbitrary queries through parse → admission → estimate → serve and
asserts the Estimator contract end to end.  These are its composite
strategies, grounded in a *real* store's vocabulary: terms are decoded
from the served dictionary (so most queries are answerable) with a
controlled dose of never-seen terms, over-deep shapes, and outright
malformed text (so the 400/422 taxonomy gets exercised too).

Idiom (see SNIPPETS.md): ``@composite`` builders over a drawn size,
steered in the property itself via ``hyp.target(...)`` toward the big /
deep / weird corner of the space.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

import numpy as np
from hypothesis import HealthCheck, strategies as st
from hypothesis.strategies import composite

from repro.rdf.store import TripleStore


def fuzz_settings(default_examples: int = 30) -> dict:
    """Shared ``@settings`` kwargs: example budget from the
    ``GENTEST_EXAMPLES`` env var, no deadline (server round trips),
    and the filter/slowness health checks suppressed (deep draws
    filter a lot by design)."""
    return dict(
        max_examples=int(
            os.environ.get("GENTEST_EXAMPLES", default_examples)
        ),
        deadline=None,
        suppress_health_check=[
            HealthCheck.filter_too_much,
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )


# ----------------------------------------------------------------------
# Vocabulary grounding
# ----------------------------------------------------------------------


def vocab_sample(
    store: TripleStore, limit: int = 200, seed: int = 0
) -> Tuple[List[str], List[str]]:
    """A deterministic (nodes, predicates) lexical sample from the
    store's dictionary — the ground truth the strategies draw from."""
    if store.dictionary is None:
        raise RuntimeError("fuzzing needs a dictionary-encoded store")
    rng = np.random.default_rng(seed)
    rows = store.backend.rows()
    node_ids = np.unique(
        np.concatenate([rows[:, 0], rows[:, 2]])
    )
    predicate_ids = np.unique(rows[:, 1])
    if len(node_ids) > limit:
        node_ids = rng.choice(node_ids, size=limit, replace=False)
    if len(predicate_ids) > limit:
        predicate_ids = rng.choice(
            predicate_ids, size=limit, replace=False
        )
    nodes = [
        store.dictionary.nodes.decode(int(i)) for i in sorted(node_ids)
    ]
    predicates = [
        store.dictionary.predicates.decode(int(i))
        for i in sorted(predicate_ids)
    ]
    return nodes, predicates


def render_term(lexical: str) -> str:
    """Lexical form to SPARQL surface form (IRIs get angle brackets)."""
    if lexical.startswith('"'):
        return lexical
    return f"<{lexical}>"


#: terms no dictionary has ever seen — the unknown-vocabulary corner.
UNKNOWN_NODES = tuple(
    f"urn:fuzz:never-seen-node-{i}" for i in range(4)
)
UNKNOWN_PREDICATES = tuple(
    f"urn:fuzz:never-seen-predicate-{i}" for i in range(4)
)


# ----------------------------------------------------------------------
# Query strategies
# ----------------------------------------------------------------------


def _terms(
    known: Sequence[str], unknown: Sequence[str], unknown_rate: float
):
    """Mostly known vocabulary, a controlled dose of never-seen terms."""
    known_terms = st.sampled_from(list(known))
    if not unknown or unknown_rate <= 0:
        return known_terms
    weight = max(int(round(1 / unknown_rate)) - 1, 1)
    return st.one_of(*([known_terms] * weight), st.sampled_from(list(unknown)))


@composite
def star_texts(
    draw,
    nodes: Sequence[str],
    predicates: Sequence[str],
    min_size: int = 1,
    max_size: int = 5,
    unknown_rate: float = 0.0,
):
    """A star BGP: one centre, *size* predicate/object edges."""
    size = draw(st.integers(min_size, max_size))
    centre = draw(
        st.one_of(
            st.just("?s"),
            _terms(nodes, UNKNOWN_NODES, unknown_rate).map(render_term),
        )
    )
    variables = ["?s"] if centre == "?s" else []
    lines = []
    for i in range(size):
        predicate = render_term(
            draw(_terms(predicates, UNKNOWN_PREDICATES, unknown_rate))
        )
        # The parser has no SELECT *; the projection is explicit, so
        # a fully ground pattern has nothing to project — force the
        # last edge's object to a variable when none was drawn.
        must_var = i == size - 1 and not variables
        if must_var or draw(st.booleans()):
            obj = f"?o{i}"
            variables.append(obj)
        else:
            obj = render_term(
                draw(_terms(nodes, UNKNOWN_NODES, unknown_rate))
            )
        lines.append(f"{centre} {predicate} {obj} .")
    return (
        "SELECT "
        + " ".join(variables)
        + " WHERE { "
        + " ".join(lines)
        + " }"
    )


@composite
def chain_texts(
    draw,
    nodes: Sequence[str],
    predicates: Sequence[str],
    min_size: int = 2,
    max_size: int = 5,
    unknown_rate: float = 0.0,
):
    """A chain BGP: ``n0 -p0-> n1 -p1-> ... -> nk``."""
    size = draw(st.integers(min_size, max_size))
    names = []
    for i in range(size + 1):
        if draw(st.booleans()):
            names.append(f"?n{i}")
        else:
            names.append(
                render_term(
                    draw(_terms(nodes, UNKNOWN_NODES, unknown_rate))
                )
            )
    variables = [n for n in names if n.startswith("?")]
    if not variables:  # explicit projection needs >= 1 variable
        names[-1] = f"?n{size}"
        variables = [names[-1]]
    lines = []
    for i in range(size):
        predicate = render_term(
            draw(_terms(predicates, UNKNOWN_PREDICATES, unknown_rate))
        )
        lines.append(f"{names[i]} {predicate} {names[i + 1]} .")
    return (
        "SELECT "
        + " ".join(variables)
        + " WHERE { "
        + " ".join(lines)
        + " }"
    )


@composite
def compound_texts(
    draw,
    nodes: Sequence[str],
    predicates: Sequence[str],
    unknown_rate: float = 0.0,
):
    """Two disjoint components in one BGP (decomposition path)."""
    star = draw(
        star_texts(
            nodes,
            predicates,
            min_size=2,
            max_size=3,
            unknown_rate=unknown_rate,
        )
    )
    chain = draw(
        chain_texts(
            nodes,
            predicates,
            min_size=2,
            max_size=3,
            unknown_rate=unknown_rate,
        )
    )
    chain = (
        chain.replace("?n", "?m")  # keep component variables disjoint
    )
    star_head, star_rest = star.split("{", 1)
    chain_head, chain_rest = chain.split("{", 1)
    variables = (
        star_head.replace("SELECT", "", 1).replace("WHERE", "")
        + " "
        + chain_head.replace("SELECT", "", 1).replace("WHERE", "")
    )
    return (
        "SELECT "
        + " ".join(variables.split())
        + " WHERE { "
        + star_rest.rsplit("}", 1)[0]
        + " "
        + chain_rest.rsplit("}", 1)[0]
        + " }"
    )


def query_texts(
    nodes: Sequence[str],
    predicates: Sequence[str],
    max_size: int = 5,
    unknown_rate: float = 0.0,
):
    """Any well-formed query the server might see."""
    return st.one_of(
        star_texts(
            nodes, predicates, max_size=max_size, unknown_rate=unknown_rate
        ),
        chain_texts(
            nodes, predicates, max_size=max_size, unknown_rate=unknown_rate
        ),
        compound_texts(nodes, predicates, unknown_rate=unknown_rate),
    )


@composite
def malformed_texts(draw):
    """Text that must be a 400: never a 500, never a hang."""
    base = draw(
        st.sampled_from(
            [
                "",
                "SELECT",
                "SELECT * WHERE {",
                "SELECT * WHERE { }",
                "SELECT * WHERE { ?s ?p }",
                "SELECT * WHERE { ?s <p> ?o }",  # missing dot is fine?
                "ASK { ?s ?p ?o . }",
                "SELECT * WHERE { ?s <p> ?o . FILTER(?o > 3) }",
                "{ ?s ?p ?o . }",
                "SELECT * WHERE { ?s <p> <o> . extra",
            ]
        )
    )
    noise = draw(
        st.text(
            alphabet="{}<>?.;| \t",
            min_size=0,
            max_size=8,
        )
    )
    return base + noise


def estimate_bodies(
    nodes: Sequence[str], predicates: Sequence[str]
):
    """Arbitrary ``POST /estimate`` JSON bodies: valid batches, empty
    lists, wrong field types — the 400-taxonomy surface."""
    valid = st.lists(
        query_texts(nodes, predicates, unknown_rate=0.1),
        min_size=1,
        max_size=4,
    ).map(lambda texts: {"queries": texts})
    invalid = st.one_of(
        st.just({}),
        st.just({"queries": []}),
        st.just({"queries": "SELECT * WHERE { ?s ?p ?o . }"}),
        st.just({"queries": [17]}),
        st.just({"queries": [None]}),
        st.just({"query": "SELECT * WHERE { ?s ?p ?o . }"}),
        st.just([]),
        st.just("queries"),
        st.lists(malformed_texts(), min_size=1, max_size=3).map(
            lambda texts: {"queries": texts}
        ),
    )
    return st.one_of(valid, valid, invalid)
