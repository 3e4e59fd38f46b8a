"""Dataset statistics: the numbers behind Table I and Fig. 4.

Provides per-graph summary statistics (triples, entities, predicates,
degree maxima and skew) plus the predicate correlation factor used to
verify that the synthetic datasets reproduce the statistical character
the paper relies on (heavy-tailed degrees, correlated predicates).
Everything reads the columnar store snapshot: degree vectors and
predicate subject sets are array reductions rather than per-node dict
walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rdf.store import TripleStore


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one knowledge graph (Table I row)."""

    name: str
    num_triples: int
    num_entities: int
    num_predicates: int
    max_out_degree: int
    max_in_degree: int
    mean_out_degree: float
    degree_gini: float


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample; 0 = uniform, →1 = skewed."""
    if len(values) == 0:
        return 0.0
    sorted_vals = np.sort(np.asarray(values, dtype=np.float64))
    total = sorted_vals.sum()
    if total == 0:
        return 0.0
    n = len(sorted_vals)
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * sorted_vals).sum()) / (n * total) - (n + 1) / n)


def compute_stats(store: TripleStore, name: str = "graph") -> GraphStats:
    """Compute the Table I statistics for *store*."""
    col = store.backend
    _, out_degrees = col.subject_degrees()
    _, in_degrees = col.object_degrees()
    return GraphStats(
        name=name,
        num_triples=store.num_triples,
        num_entities=store.num_nodes,
        num_predicates=store.num_predicates,
        max_out_degree=int(out_degrees.max()) if len(out_degrees) else 0,
        max_in_degree=int(in_degrees.max()) if len(in_degrees) else 0,
        mean_out_degree=(
            float(out_degrees.mean()) if len(out_degrees) else 0.0
        ),
        degree_gini=gini(out_degrees),
    )


def correlation_factor(store: TripleStore, p1: int, p2: int) -> float:
    """Observed/expected subject co-occurrence of two predicates.

    Values ≫ 1 mean the predicates are positively correlated, i.e. the
    independence assumption underestimates their conjunction.
    """
    col = store.backend
    n = col.subjects().size
    if n == 0:
        return 1.0
    subjects_p1 = col.predicate_subject_stats(p1)[0]
    subjects_p2 = col.predicate_subject_stats(p2)[0]
    with_p1 = subjects_p1.size
    with_p2 = subjects_p2.size
    both = np.intersect1d(
        subjects_p1, subjects_p2, assume_unique=True
    ).size
    expected = (with_p1 / n) * (with_p2 / n) * n
    if expected == 0:
        return 0.0 if both == 0 else float("inf")
    return both / expected
