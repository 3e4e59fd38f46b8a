"""Join-order optimization on top of cardinality estimates.

The paper's motivation (§I) is that "producing efficient query plans
heavily relies on accurate cardinality estimates".  This subpackage turns
that motivation into a measurable substrate: left-deep join plans over
BGP triple patterns, a C_out cost model fed by any
:class:`~repro.core.estimator.Estimator`, plan enumeration
(exhaustive, greedy, and Held–Karp DP), a pipelined index-nested-loop
executor that measures the *true* intermediate sizes a plan produces,
and a plan-quality harness in the style of "How good are query
optimizers, really?" (Leis et al., VLDB 2015).

Typical use::

    from ext.optimizer import Optimizer, plan_quality

    optimizer = Optimizer(estimator)        # any Estimator
    plan = optimizer.optimize(query)        # best left-deep order
    result = execute_order(store, query, plan.order)
    report = plan_quality(store, estimator, queries)
"""

from ext.optimizer.plans import (
    JoinPlan,
    connected_orders,
    is_connected_order,
    prefix_patterns,
)
from ext.optimizer.bushy import (
    BushyPlan,
    bushy_best_plan,
    left_deep_best_plan,
    left_deep_vs_bushy,
)
from ext.optimizer.cost import (
    CostModel,
    cout_cost,
    estimator_cost_fn,
    true_cost_fn,
)
from ext.optimizer.enumeration import (
    Optimizer,
    dp_best_order,
    exhaustive_best_order,
    greedy_order,
)
from ext.optimizer.executor import (
    PlanExecution,
    TreeExecution,
    execute_order,
    execute_plan,
)
from ext.optimizer.quality import (
    PlanQualityReport,
    QueryPlanOutcome,
    plan_quality,
)

__all__ = [
    "BushyPlan",
    "bushy_best_plan",
    "left_deep_best_plan",
    "left_deep_vs_bushy",
    "JoinPlan",
    "connected_orders",
    "is_connected_order",
    "prefix_patterns",
    "CostModel",
    "cout_cost",
    "estimator_cost_fn",
    "true_cost_fn",
    "Optimizer",
    "dp_best_order",
    "exhaustive_best_order",
    "greedy_order",
    "PlanExecution",
    "TreeExecution",
    "execute_order",
    "execute_plan",
    "PlanQualityReport",
    "QueryPlanOutcome",
    "plan_quality",
]
