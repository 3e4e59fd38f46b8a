"""Admission control by trained query shape.

A query whose shape no trained model covers cannot be estimated; before
this module it travelled the whole pipeline — scheduler queue, possibly
a worker process — only to come back as an :class:`EstimationError`.
Under load that wastes a batch slot per doomed query and, in multi-worker
mode, a cross-process round trip.  :class:`ShapeManifest` is the
trained-shape surface saved with the checkpoint artifact so the HTTP
layer can 422 uncovered shapes **at parse time** instead.

The manifest is built by *probing the framework's actual routing*
(:meth:`~repro.core.framework.LMKG.covered_shapes`): for every trained
model the grouping strategy is asked which (topology, size) pairs land
on it, so the admitted set is exactly the set the execution phase can
answer — never a re-implementation that could drift.  Composite queries
are checked through the same
:func:`~repro.core.decomposition.classified_components` +
tree-absorption logic the framework itself uses.

Admission is **sound, not complete** in one direction only: a query it
admits is guaranteed to route (the worker-side 422 path stays as the
backstop for semantic failures), and a query it rejects would provably
have raised ``EstimationError`` downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence

from repro.core.decomposition import classified_components
from repro.rdf.pattern import QueryPattern, Topology


class AdmissionError(RuntimeError):
    """A request query is outside the trained-shape envelope (HTTP 422).

    ``reason`` is a stable machine-readable code; ``query_index`` points
    at the offending query within the request batch.
    """

    def __init__(
        self, message: str, query_index: int = 0
    ) -> None:
        super().__init__(message)
        self.reason = "uncovered_shape"
        self.query_index = query_index


@dataclass(frozen=True)
class ShapeManifest:
    """The set of (topology, size) shapes the served models cover.

    ``covered`` maps a topology value (``"star"``, ``"chain"``,
    ``"tree"``) to the exact sizes routable to a trained model.
    """

    covered: Dict[str, FrozenSet[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_framework(cls, framework) -> "ShapeManifest":
        """The shapes *framework*'s own routing covers."""
        return cls.from_dict(framework.covered_shapes())

    @classmethod
    def from_dict(cls, payload: Dict[str, Sequence[int]]) -> "ShapeManifest":
        return cls(
            {
                str(topology): frozenset(int(s) for s in sizes)
                for topology, sizes in payload.items()
            }
        )

    def to_dict(self) -> Dict[str, list]:
        """JSON-ready form (sorted size lists), for ``artifact.json``."""
        return {
            topology: sorted(sizes)
            for topology, sizes in sorted(self.covered.items())
        }

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def rejection_reason(self, query: QueryPattern) -> Optional[str]:
        """Why *query* cannot be served, or None when it is admitted.

        Mirrors ``LMKG._estimate_batch`` routing: single triples are
        answered from the indexes, composite queries may be absorbed by
        a trained tree model or are decomposed into star/chain/single
        components, and each component must land on a trained model (or
        be tree-absorbable).
        """
        if query.size == 1:
            return None
        topology = query.topology()
        if topology is Topology.COMPOSITE and self._tree_absorbs(query):
            return None
        for component, shape in classified_components(query, topology):
            if component.size == 1:
                continue
            if component.size in self.covered.get(
                shape.value, frozenset()
            ):
                continue
            if self._tree_absorbs(component):
                continue
            return (
                f"no trained model covers shape "
                f"{shape.value}:{component.size} "
                f"(covered: {self.to_dict() or 'nothing'})"
            )
        return None

    def _tree_absorbs(self, query: QueryPattern) -> bool:
        if query.size not in self.covered.get("tree", frozenset()):
            return False
        from repro.rdf.treecount import is_tree_query

        return is_tree_query(query)

    def admit_all(
        self, queries: Sequence[QueryPattern]
    ) -> None:
        """Raise :class:`AdmissionError` on the first uncovered query."""
        for i, query in enumerate(queries):
            reason = self.rejection_reason(query)
            if reason is not None:
                raise AdmissionError(
                    f"query {i}: {reason}", query_index=i
                )
