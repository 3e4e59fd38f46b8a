"""The C_out cost model over join orders.

C_out (Cluet & Moerkotte) charges a plan the sum of its intermediate
result sizes — the cost a pipelined join pays to *produce* every
intermediate tuple.  The final result is excluded: every complete plan
must produce it, so it cannot differentiate orders.

The model is parametric in where cardinalities come from: the true
counter (:func:`true_cost_fn`) gives the oracle cost an ideal optimizer
would minimise; :func:`estimator_cost_fn` plugs in any
:class:`~repro.core.estimator.Estimator`, which is how
estimation error becomes plan regret.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ext.optimizer.plans import prefix_patterns
from repro.core.estimator import Estimator
from repro.rdf.fastcount import count_query
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore

#: A cost model maps a sub-query to its (estimated) cardinality.
CostModel = Callable[[QueryPattern], float]


def cout_cost(
    query: QueryPattern, order: Sequence[int], cardinality: CostModel
) -> float:
    """C_out of joining *query*'s patterns in *order* under *cardinality*.

    Sums the cardinalities of every proper prefix of the order (the
    intermediates); single-pattern queries therefore cost 0 — there is
    nothing to order.
    """
    prefixes = prefix_patterns(query, order)[:-1]
    return float(sum(cardinality(prefix) for prefix in prefixes))


def true_cost_fn(store: TripleStore) -> CostModel:
    """Oracle cost model: exact sub-query cardinalities from *store*."""

    def cardinality(prefix: QueryPattern) -> float:
        return float(count_query(store, prefix))

    return cardinality


def estimator_cost_fn(estimator: Estimator) -> CostModel:
    """Cost model backed by a cardinality estimator.

    Estimates are clamped at zero: a negative intermediate size is
    meaningless and would invert the order comparison.
    """

    def cardinality(prefix: QueryPattern) -> float:
        return max(0.0, float(estimator.estimate(prefix)))

    return cardinality
