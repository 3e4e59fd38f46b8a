"""Plan execution: left-deep pipelines and bushy hash-join trees.

Where the cost model *predicts* intermediate sizes, the executors
*measure* them:

- :func:`execute_order` joins the patterns strictly in a given
  left-deep order (no adaptive reordering), probing the store's
  permutation indexes for each partial binding; per-level binding
  counts equal the prefix cardinalities.
- :func:`execute_plan` evaluates a :class:`~ext.optimizer.bushy.
  BushyPlan` bottom-up with in-memory hash joins on the shared
  variables, recording each join node's output size — the quantities
  the bushy C_out charges.

Both are validated against the exact matcher in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, Variable

Bindings = Dict[Variable, int]


@dataclass(frozen=True)
class PlanExecution:
    """What executing one join order actually did.

    Attributes:
        order: the executed join order.
        intermediate_sizes: bindings produced at each level except the
            last (the sizes C_out charges for).
        result_size: bindings produced by the full join.
        probes: total index probes issued (one per pattern lookup on a
            partial binding) — the executor's work metric.
    """

    order: Tuple[int, ...]
    intermediate_sizes: Tuple[int, ...]
    result_size: int
    probes: int

    @property
    def cout(self) -> float:
        """The measured C_out of the executed plan."""
        return float(sum(self.intermediate_sizes))


def _extend(
    bindings: Bindings, tp: TriplePattern, triple: Tuple[int, int, int]
) -> Optional[Bindings]:
    """Bindings extended so *tp* maps onto *triple*; None on conflict."""
    new = bindings
    copied = False
    for position, value in zip(tp, triple):
        if isinstance(position, Variable):
            bound = new.get(position)
            if bound is None:
                if not copied:
                    new = dict(new)
                    copied = True
                new[position] = value
            elif bound != value:
                return None
        elif position != value:
            return None
    return new


def execute_order(
    store: TripleStore, query: QueryPattern, order: Sequence[int]
) -> PlanExecution:
    """Join *query*'s patterns over *store* strictly in *order*.

    Levels are processed breadth-first so each level's production count
    is available even when a later level filters everything out.
    """
    n = len(query.triples)
    if sorted(order) != list(range(n)):
        raise ValueError(
            f"order {order!r} is not a permutation of 0..{n - 1}"
        )
    level_bindings: List[Bindings] = [{}]
    produced: List[int] = []
    probes = 0
    for idx in order:
        tp = query.triples[idx]
        next_level: List[Bindings] = []
        for bindings in level_bindings:
            bound_tp = tp.bind(bindings)
            probes += 1
            for triple in store.match_pattern(bound_tp):
                extended = _extend(bindings, bound_tp, triple)
                if extended is not None:
                    next_level.append(extended)
        produced.append(len(next_level))
        level_bindings = next_level
        if not level_bindings:
            # Everything filtered: remaining levels produce nothing but
            # C_out still records the zeros.
            remaining = len(order) - len(produced)
            produced.extend([0] * remaining)
            break
    return PlanExecution(
        order=tuple(order),
        intermediate_sizes=tuple(produced[:-1]),
        result_size=produced[-1],
        probes=probes,
    )


@dataclass(frozen=True)
class TreeExecution:
    """What executing one bushy join tree actually did.

    Attributes:
        result_size: bindings produced by the root join.
        join_outputs: output size of every join node, root last —
            the quantities the bushy C_out model charges.
        rendered: the executed tree's parenthesised form, for logs.
    """

    result_size: int
    join_outputs: Tuple[int, ...]
    rendered: str

    @property
    def cout(self) -> float:
        """Measured join-output C_out (root included)."""
        return float(sum(self.join_outputs))


def _scan(store: TripleStore, tp: TriplePattern) -> List[Bindings]:
    """All variable bindings of one triple pattern."""
    out: List[Bindings] = []
    for triple in store.match_pattern(tp):
        bindings = _extend({}, tp, triple)
        if bindings is not None:
            out.append(bindings)
    return out


def _hash_join(
    left: List[Bindings], right: List[Bindings]
) -> List[Bindings]:
    """Natural join of two binding sets on their shared variables.

    Degenerates to a cross product when no variables are shared (the
    planner only produces such joins for disconnected queries).
    """
    if not left or not right:
        return []
    shared = tuple(set(left[0]) & set(right[0]))
    if not shared:
        return [
            {**a, **b}
            for a in left
            for b in right
            if all(a.get(k, b[k]) == b[k] for k in b)
        ]
    table: Dict[Tuple[int, ...], List[Bindings]] = defaultdict(list)
    for row in left:
        table[tuple(row[var] for var in shared)].append(row)
    joined: List[Bindings] = []
    for row in right:
        key = tuple(row[var] for var in shared)
        for match in table.get(key, ()):  # merge, re-check overlaps
            merged = dict(match)
            conflict = False
            for var, value in row.items():
                if merged.setdefault(var, value) != value:
                    conflict = True
                    break
            if not conflict:
                joined.append(merged)
    return joined


def execute_plan(
    store: TripleStore, query: QueryPattern, plan
) -> TreeExecution:
    """Evaluate a bushy join tree bottom-up with hash joins.

    *plan* is a :class:`~ext.optimizer.bushy.BushyPlan` over
    *query*'s pattern indices; its leaves are index scans, its internal
    nodes natural joins on the shared variables.
    """
    if sorted(plan.indices()) != list(range(len(query.triples))):
        raise ValueError(
            "plan does not cover exactly the query's patterns"
        )
    join_outputs: List[int] = []

    def evaluate(node) -> List[Bindings]:
        if node.is_leaf:
            return _scan(store, query.triples[node.leaf])
        left = evaluate(node.left)
        right = evaluate(node.right)
        joined = _hash_join(left, right)
        join_outputs.append(len(joined))
        return joined

    result = evaluate(plan)
    return TreeExecution(
        result_size=len(result),
        join_outputs=tuple(join_outputs),
        rendered=plan.render(),
    )
