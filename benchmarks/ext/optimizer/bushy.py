"""Bushy join trees: the plan space beyond left-deep orders.

Left-deep plans force every join's right input to be a base pattern.
Chain queries often prefer *bushy* trees — join the two halves of the
chain independently, then join the (small) intermediate results — which
no left-deep order can express.  This module adds a DPsub-style dynamic
program over connected subsets that considers every binary partition.

Cost accounting: the classic C_out — the sum of the output sizes of
**every join node** in the tree, root included (Cluet & Moerkotte).
The root term is identical for all plans of one query, so comparisons
are unaffected, and leaves (index scans) are free.  Note this differs
from the prefix-sum convention of :func:`ext.optimizer.cost.cout_cost`
(which charges the first scanned pattern to break ties between 2-pattern
orders); to compare tree shapes fairly, :func:`left_deep_vs_bushy`
evaluates *both* optima under the join-output convention by restricting
the same DP to left-deep trees.

The left-deep optimum is a member of the bushy space, so the bushy
optimum can never cost more — a property the test suite asserts — and
the *gap* between the two measures how much tree shape matters per
topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from ext.optimizer.cost import CostModel
from ext.optimizer.plans import pattern_variables
from repro.rdf.pattern import QueryPattern


@dataclass(frozen=True)
class BushyPlan:
    """A binary join tree over triple-pattern indices.

    Attributes:
        left / right: sub-plans, None for a leaf.
        leaf: the pattern index when this node is a leaf.
        cost: C_out of the subtree (output sizes of all its join nodes,
            this node included when it is a join).
    """

    cost: float
    leaf: Optional[int] = None
    left: Optional["BushyPlan"] = None
    right: Optional["BushyPlan"] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def indices(self) -> Tuple[int, ...]:
        """All pattern indices in this subtree, sorted."""
        if self.is_leaf:
            return (self.leaf,)
        assert self.left is not None and self.right is not None
        return tuple(
            sorted(self.left.indices() + self.right.indices())
        )

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def is_left_deep(self) -> bool:
        """True when every join's right input is a single base pattern."""
        if self.is_leaf:
            return True
        assert self.left is not None and self.right is not None
        return self.right.is_leaf and self.left.is_left_deep()

    def render(self) -> str:
        """Parenthesised tree, e.g. ``((0 x 1) x (2 x 3))``."""
        if self.is_leaf:
            return str(self.leaf)
        assert self.left is not None and self.right is not None
        return f"({self.left.render()} x {self.right.render()})"


def _proper_submasks(mask: int) -> Iterator[int]:
    """The non-empty proper submasks of *mask* (standard bit trick)."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _best_plan(
    query: QueryPattern,
    cardinality: CostModel,
    left_deep_only: bool,
) -> BushyPlan:
    n = len(query.triples)
    variables = pattern_variables(query)
    full = (1 << n) - 1
    card_cache: Dict[int, float] = {}

    def card_of(mask: int) -> float:
        if mask not in card_cache:
            indices = [i for i in range(n) if mask & (1 << i)]
            card_cache[mask] = cardinality(
                QueryPattern([query.triples[i] for i in indices])
            )
        return card_cache[mask]

    vars_cache: Dict[int, frozenset] = {}

    def vars_of(mask: int) -> frozenset:
        if mask not in vars_cache:
            out: Set = set()
            for i in range(n):
                if mask & (1 << i):
                    out |= variables[i]
            vars_cache[mask] = frozenset(out)
        return vars_cache[mask]

    def connected_split(left: int, right: int) -> bool:
        lv, rv = vars_of(left), vars_of(right)
        return not lv or not rv or bool(lv & rv)

    best: Dict[int, BushyPlan] = {
        1 << i: BushyPlan(cost=0.0, leaf=i) for i in range(n)
    }
    masks_by_size: Dict[int, list] = {}
    for mask in range(1, full + 1):
        masks_by_size.setdefault(bin(mask).count("1"), []).append(mask)
    for size in range(2, n + 1):
        for mask in masks_by_size.get(size, []):
            connected = []
            fallback = []
            for left in _proper_submasks(mask):
                right = mask ^ left
                if left not in best or right not in best:
                    continue
                if left_deep_only and bin(right).count("1") != 1:
                    continue
                if not left_deep_only and left > right:
                    continue  # symmetric split: consider once
                bucket = (
                    connected
                    if connected_split(left, right)
                    else fallback
                )
                bucket.append((left, right))
            own = card_of(mask)
            incumbent: Optional[BushyPlan] = None
            for left, right in connected or fallback:
                cost = best[left].cost + best[right].cost + own
                if incumbent is None or cost < incumbent.cost:
                    incumbent = BushyPlan(
                        cost=cost,
                        left=best[left],
                        right=best[right],
                    )
            if incumbent is not None:
                best[mask] = incumbent
    return best[full]


def bushy_best_plan(
    query: QueryPattern, cardinality: CostModel
) -> BushyPlan:
    """Minimum-C_out bushy join tree via DP over pattern subsets.

    ``O(3^n)`` subset pairs — fine for the paper's query sizes (2–8).
    Connected splits are preferred; Cartesian products are considered
    only for subsets with no connected split.
    """
    if len(query.triples) == 1:
        return BushyPlan(cost=0.0, leaf=0)
    return _best_plan(query, cardinality, left_deep_only=False)


def left_deep_best_plan(
    query: QueryPattern, cardinality: CostModel
) -> BushyPlan:
    """The best *left-deep* tree under the same join-output C_out."""
    if len(query.triples) == 1:
        return BushyPlan(cost=0.0, leaf=0)
    return _best_plan(query, cardinality, left_deep_only=True)


def left_deep_vs_bushy(
    query: QueryPattern, cardinality: CostModel
) -> Tuple[float, float]:
    """(left-deep optimum, bushy optimum) under identical accounting."""
    return (
        left_deep_best_plan(query, cardinality).cost,
        bushy_best_plan(query, cardinality).cost,
    )
