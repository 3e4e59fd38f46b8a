"""Join-order enumeration: exhaustive, greedy, and Held–Karp DP.

All three strategies search left-deep orders that avoid Cartesian
products (falling back to the full permutation space only when the query
graph is disconnected).  Because a sub-query's cardinality depends only
on *which* patterns it contains, C_out decomposes over subsets and the
DP explores ``O(2^n · n)`` states instead of ``n!`` orders — the classic
dynamic programming trick of System R-style optimizers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ext.optimizer.cost import CostModel, cout_cost, estimator_cost_fn
from ext.optimizer.plans import (
    JoinOrder,
    JoinPlan,
    connected_orders,
    pattern_variables,
)
from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern


def exhaustive_best_order(
    query: QueryPattern, cardinality: CostModel
) -> JoinPlan:
    """Minimum-C_out order by trying every connected permutation.

    Exact but factorial; use for validation and for the small query
    sizes (2–8 patterns) the paper evaluates.
    """
    best: Optional[JoinPlan] = None
    for order in connected_orders(query):
        cost = cout_cost(query, order, cardinality)
        if best is None or cost < best.cost:
            best = JoinPlan(order=order, cost=cost)
    assert best is not None  # connected_orders always yields
    return best


def greedy_order(query: QueryPattern, cardinality: CostModel) -> JoinPlan:
    """Selectivity-first greedy order (what `repro.rdf.matcher` does).

    Starts from the cheapest single pattern, then repeatedly appends the
    connected pattern whose extended prefix is estimated smallest.
    Linear in enumerated prefixes; no optimality guarantee.
    """
    n = len(query.triples)
    variables = pattern_variables(query)
    remaining: Set[int] = set(range(n))
    order: List[int] = []
    seen_vars: Set = set()
    total = 0.0

    def prefix_card(indices: Sequence[int]) -> float:
        return cardinality(
            QueryPattern([query.triples[i] for i in indices])
        )

    first = min(remaining, key=lambda i: prefix_card([i]))
    order.append(first)
    remaining.discard(first)
    seen_vars |= variables[first]
    while remaining:
        if len(order) < n:
            total += prefix_card(order)
        connected = [
            i
            for i in remaining
            if not variables[i] or not seen_vars
            or (variables[i] & seen_vars)
        ]
        candidates = connected or sorted(remaining)
        nxt = min(candidates, key=lambda i: prefix_card(order + [i]))
        order.append(nxt)
        remaining.discard(nxt)
        seen_vars |= variables[nxt]
    return JoinPlan(order=tuple(order), cost=total)


def dp_best_order(query: QueryPattern, cardinality: CostModel) -> JoinPlan:
    """Optimal left-deep order via dynamic programming over subsets.

    ``best(S)`` is the cheapest sum of intermediate sizes over orders of
    the pattern subset ``S``; since a prefix's cardinality is
    order-independent, ``best`` satisfies::

        best({i})    = 0
        best(S)      = min over j in S of best(S \\ {j}) + card(S \\ {j})

    restricted to connected extensions when any exist.  Returns the same
    cost as :func:`exhaustive_best_order` (asserted in the test suite)
    at ``O(2^n · n)`` states.
    """
    n = len(query.triples)
    if n == 1:
        return JoinPlan(order=(0,), cost=0.0)
    variables = pattern_variables(query)
    subset_card: Dict[int, float] = {}

    def card_of(mask: int) -> float:
        if mask not in subset_card:
            indices = [i for i in range(n) if mask & (1 << i)]
            subset_card[mask] = cardinality(
                QueryPattern([query.triples[i] for i in indices])
            )
        return subset_card[mask]

    def connects(mask: int, j: int) -> bool:
        step = variables[j]
        if not step:
            return True
        prefix_vars: Set = set()
        for i in range(n):
            if mask & (1 << i):
                prefix_vars |= variables[i]
        return not prefix_vars or bool(step & prefix_vars)

    # best[mask] = (cost, order) of the cheapest left-deep prefix over mask.
    best: Dict[int, Tuple[float, JoinOrder]] = {
        1 << i: (0.0, (i,)) for i in range(n)
    }
    for size in range(2, n + 1):
        layer: Dict[int, Tuple[float, JoinOrder]] = {}
        for mask, (cost, order) in best.items():
            if bin(mask).count("1") != size - 1:
                continue
            extensions = [
                j
                for j in range(n)
                if not (mask & (1 << j)) and connects(mask, j)
            ]
            if not extensions:  # disconnected query: allow cross product
                extensions = [
                    j for j in range(n) if not (mask & (1 << j))
                ]
            step_cost = cost + card_of(mask)
            for j in extensions:
                new_mask = mask | (1 << j)
                candidate = (step_cost, order + (j,))
                incumbent = layer.get(new_mask)
                if incumbent is None or candidate[0] < incumbent[0]:
                    layer[new_mask] = candidate
        best.update(layer)
    cost, order = best[(1 << n) - 1]
    return JoinPlan(order=order, cost=cost)


_STRATEGIES = {
    "dp": dp_best_order,
    "exhaustive": exhaustive_best_order,
    "greedy": greedy_order,
}


class Optimizer:
    """Pick join orders for BGP queries using a cardinality source.

    Args:
        cardinality: a :class:`Estimator` or a bare
            ``QueryPattern -> float`` cost model.
        strategy: ``"dp"`` (default, optimal), ``"exhaustive"``
            (optimal, factorial — validation only), or ``"greedy"``.
    """

    def __init__(
        self,
        cardinality: Union[Estimator, CostModel],
        strategy: str = "dp",
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"expected one of {sorted(_STRATEGIES)}"
            )
        if hasattr(cardinality, "estimate"):
            # Anything with the estimator protocol (Estimator subclasses,
            # the LMKG façade, ad-hoc adapters).
            self.cost_model: CostModel = estimator_cost_fn(cardinality)
        elif callable(cardinality):
            self.cost_model = cardinality
        else:
            raise TypeError(
                "cardinality must expose .estimate or be callable"
            )
        self.strategy = strategy

    def optimize(self, query: QueryPattern) -> JoinPlan:
        """The best join order for *query* under this optimizer's
        cardinality source and search strategy."""
        return _STRATEGIES[self.strategy](query, self.cost_model)
