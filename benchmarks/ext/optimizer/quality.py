"""Plan-quality evaluation: how much plan regret does estimation error buy?

Follows the methodology of "How good are query optimizers, really?"
(Leis et al., VLDB 2015): for every query, plan once with the estimator
under test and once with the true-cardinality oracle, then compare the
*true* C_out of both plans.  The ratio — the *suboptimality factor* —
is 1.0 when the estimator's errors were harmless for planning and grows
as misestimates push the optimizer into bad orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ext.optimizer.cost import cout_cost, estimator_cost_fn, true_cost_fn
from ext.optimizer.enumeration import dp_best_order
from ext.optimizer.plans import JoinOrder
from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore


@dataclass(frozen=True)
class QueryPlanOutcome:
    """Planning outcome for one query.

    Attributes:
        chosen_order: order picked under the estimator.
        optimal_order: order picked by the true-cardinality oracle.
        chosen_true_cost: true C_out of the chosen order.
        optimal_true_cost: true C_out of the oracle order.
    """

    chosen_order: JoinOrder
    optimal_order: JoinOrder
    chosen_true_cost: float
    optimal_true_cost: float

    @property
    def suboptimality(self) -> float:
        """True cost ratio chosen/optimal; 1.0 means a perfect plan.

        Queries whose optimal cost is 0 (every order is free) count as
        perfect unless the chosen plan somehow paid anything.
        """
        if self.optimal_true_cost <= 0.0:
            return 1.0 if self.chosen_true_cost <= 0.0 else float("inf")
        return self.chosen_true_cost / self.optimal_true_cost

    @property
    def is_optimal(self) -> bool:
        return self.suboptimality <= 1.0


@dataclass
class PlanQualityReport:
    """Aggregate plan quality of one estimator over a query set."""

    estimator_name: str
    outcomes: List[QueryPlanOutcome]

    def suboptimalities(self) -> np.ndarray:
        return np.array([o.suboptimality for o in self.outcomes])

    @property
    def fraction_optimal(self) -> float:
        """Share of queries where the estimator found an optimal plan."""
        if not self.outcomes:
            return 1.0
        return float(
            np.mean([o.is_optimal for o in self.outcomes])
        )

    @property
    def mean_suboptimality(self) -> float:
        return float(np.mean(self.suboptimalities()))

    @property
    def max_suboptimality(self) -> float:
        return float(np.max(self.suboptimalities()))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.suboptimalities(), q))

    def summary_row(self) -> str:
        """One formatted result-table row (name, optimal %, mean, p95, max)."""
        return (
            f"{self.estimator_name:<14} "
            f"optimal={self.fraction_optimal:6.1%}  "
            f"mean={self.mean_suboptimality:8.3f}  "
            f"p95={self.percentile(95):8.3f}  "
            f"max={self.max_suboptimality:8.3f}"
        )


def plan_query(
    store: TripleStore,
    estimator: Estimator,
    query: QueryPattern,
) -> QueryPlanOutcome:
    """Plan one query under the estimator and the oracle, cost both truly."""
    oracle = true_cost_fn(store)
    chosen = dp_best_order(query, estimator_cost_fn(estimator))
    optimal = dp_best_order(query, oracle)
    return QueryPlanOutcome(
        chosen_order=chosen.order,
        optimal_order=optimal.order,
        chosen_true_cost=cout_cost(query, chosen.order, oracle),
        optimal_true_cost=optimal.cost,
    )


def plan_quality(
    store: TripleStore,
    estimator: Estimator,
    queries: Sequence[QueryPattern],
    max_size: Optional[int] = None,
) -> PlanQualityReport:
    """Plan-quality report of *estimator* over *queries*.

    Args:
        max_size: skip queries with more patterns than this (the DP is
            exponential in pattern count; the paper's sizes of 2–8 are
            all fine).
    """
    outcomes = [
        plan_query(store, estimator, query)
        for query in queries
        if max_size is None or len(query.triples) <= max_size
    ]
    return PlanQualityReport(
        estimator_name=getattr(estimator, "name", "estimator"),
        outcomes=outcomes,
    )
