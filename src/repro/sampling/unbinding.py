"""Turning bound instances into query patterns with unbound variables.

The supervised model trains on *queries* — patterns with variables — and
their cardinalities (§IV: "the training data consists of different graph
patterns ... the graph patterns can include unbound variables").  This
module derives such queries from bound instances by replacing node terms
with fresh variables.

Predicates stay bound by default, matching the paper's evaluation setup
("we limit the graph patterns to include only bounded predicates").
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import PatternTerm, Variable

from repro.sampling.random_walk import Instance


def star_query_from_instance(
    instance: Instance, unbound_mask: Sequence[bool]
) -> QueryPattern:
    """Build a star query from ``(s, p1, o1, ..., pk, ok)``.

    *unbound_mask* has one flag per node position: index 0 is the centre
    subject, index i >= 1 the i-th object.  True replaces the node with a
    variable.
    """
    size = (len(instance) - 1) // 2
    if len(unbound_mask) != size + 1:
        raise ValueError(
            f"mask needs {size + 1} flags, got {len(unbound_mask)}"
        )
    centre: PatternTerm = (
        Variable("s") if unbound_mask[0] else instance[0]
    )
    pairs: List[Tuple[PatternTerm, PatternTerm]] = []
    for i in range(size):
        p = instance[1 + 2 * i]
        o = instance[2 + 2 * i]
        obj: PatternTerm = Variable(f"o{i}") if unbound_mask[i + 1] else o
        pairs.append((p, obj))
    return star_pattern(centre, pairs)


def chain_query_from_instance(
    instance: Instance, unbound_mask: Sequence[bool]
) -> QueryPattern:
    """Build a chain query from ``(n1, p1, n2, ..., pk, nk+1)``.

    *unbound_mask* has one flag per node along the walk.
    """
    size = (len(instance) - 1) // 2
    if len(unbound_mask) != size + 1:
        raise ValueError(
            f"mask needs {size + 1} flags, got {len(unbound_mask)}"
        )
    terms: List[PatternTerm] = []
    node_idx = 0
    for i, value in enumerate(instance):
        if i % 2 == 0:
            if unbound_mask[node_idx]:
                terms.append(Variable(f"n{node_idx}"))
            else:
                terms.append(value)
            node_idx += 1
        else:
            terms.append(value)
    return chain_pattern(terms)


def query_from_instance(
    topology: str, instance: Instance, unbound_mask: Sequence[bool]
) -> QueryPattern:
    """Dispatch on topology."""
    if topology == "star":
        return star_query_from_instance(instance, unbound_mask)
    if topology == "chain":
        return chain_query_from_instance(instance, unbound_mask)
    raise ValueError(f"unknown topology {topology!r}")


def random_unbound_mask(
    num_nodes: int, rng: np.random.Generator, min_unbound: int = 1
) -> List[bool]:
    """A random node mask with at least *min_unbound* variables.

    The number of unbound nodes is uniform in [min_unbound, num_nodes],
    covering the full spectrum from almost-bound to fully-variable
    queries, so the supervised model sees representative inputs.
    """
    if not 0 <= min_unbound <= num_nodes:
        raise ValueError("min_unbound out of range")
    count = int(rng.integers(min_unbound, num_nodes + 1))
    mask = [False] * num_nodes
    for idx in rng.choice(num_nodes, size=count, replace=False):
        mask[int(idx)] = True
    return mask
