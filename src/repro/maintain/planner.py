"""Plan an incremental maintenance run from the delta above the mark.

The dbt incremental idiom's "what changed" step: given the last
materialization's :class:`~repro.maintain.watermark.Watermark` and a
retained base snapshot of the graph the models were trained against,
compute the delta triples (live rows absent from the base, via the
array-native ``ColumnarBackend.isin_rows``), then derive what the delta
can actually touch:

- **affected training queries** per shape (exact — a label can only
  change when a delta triple matches one of the query's patterns, see
  :mod:`repro.maintain.relabel`),
- **stale shapes**: shapes with affected queries, plus shapes whose
  *instance universe* moved — e.g. a ``star(k)`` gains instances when
  a touched subject's live out-degree reaches ``k``, a ``chain(k)``
  when a delta edge attaches to an existing walk — detected through
  the backend's vectorised degree accessors,
- **stale model keys** under the framework's grouping strategy: the
  only models the fine-tune step needs to touch.

Certain changes cannot be absorbed incrementally and force a full
rebuild: a vocabulary change (encoder widths derive from node and
predicate counts; the dictionary checksum guards renames), a shrunken
graph (the delta-above-watermark model is append-only, like dbt's), a
missing watermark or base snapshot (nothing to diff against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.grouping import GroupingStrategy
from repro.maintain.relabel import affected_mask
from repro.maintain.watermark import Watermark
from repro.rdf.columnar import ColumnarBackend
from repro.rdf.store import TripleStore
from repro.sampling.workload import QueryRecord

Shape = Tuple[str, int]


@dataclass
class MaintenancePlan:
    """What one maintenance run will do, computable without doing it."""

    #: True when the run must rebuild everything from scratch
    full: bool
    #: why (always set for full rebuilds; None for incremental runs)
    reason: Optional[str] = None
    #: triples added since the base snapshot, ``(N, 3)``
    delta_rows: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.int64)
    )
    #: shapes whose labels or universe the delta touches, sorted
    stale_shapes: List[Shape] = field(default_factory=list)
    #: shapes the delta provably cannot touch
    fresh_shapes: List[Shape] = field(default_factory=list)
    #: grouping keys of the models the fine-tune step must visit
    stale_keys: List[Hashable] = field(default_factory=list)
    #: per-shape boolean mask over that shape's records (stale only)
    affected: Dict[Shape, np.ndarray] = field(default_factory=dict)
    #: per-shape materialization sizes (all shapes)
    num_records: Dict[Shape, int] = field(default_factory=dict)

    @property
    def num_delta(self) -> int:
        return int(self.delta_rows.shape[0])

    def num_affected(self, shape: Shape) -> int:
        mask = self.affected.get(shape)
        return 0 if mask is None else int(mask.sum())

    def to_dict(self) -> dict:
        """JSON-ready summary for ``--dry-run`` / ``maintain status``."""
        return {
            "full": self.full,
            "reason": self.reason,
            "num_delta": self.num_delta,
            "stale_shapes": [list(s) for s in self.stale_shapes],
            "fresh_shapes": [list(s) for s in self.fresh_shapes],
            "stale_keys": [
                list(k) if isinstance(k, tuple) else k
                for k in self.stale_keys
            ],
            "affected_records": {
                f"{topology}_{size}": {
                    "affected": self.num_affected((topology, size)),
                    "total": self.num_records.get(
                        (topology, size), 0
                    ),
                }
                for topology, size in self.stale_shapes
            },
        }


def compute_delta(
    store: TripleStore, base: ColumnarBackend
) -> np.ndarray:
    """Triples in the live *store* but not in the *base* snapshot.

    One vectorised ``isin_rows`` membership probe over the live row set.
    """
    live = store.backend.rows()
    if live.shape[0] == 0:
        return np.empty((0, 3), dtype=np.int64)
    return live[~base.isin_rows(live)]


def _degrees_of(
    values: np.ndarray, keys: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Degree per value, 0 where absent (sorted-unique key lookup)."""
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros(values.size, dtype=np.int64)
    if keys.size == 0 or values.size == 0:
        return out
    idx = np.searchsorted(keys, values)
    valid = idx < keys.size
    hit = np.zeros(values.size, dtype=bool)
    hit[valid] = keys[idx[valid]] == values[valid]
    out[hit] = counts[idx[hit]]
    return out


def _universe_moved(
    shape: Shape, delta: np.ndarray, backend: ColumnarBackend
) -> bool:
    """Can the delta create (or extend) instances of *shape*?

    ``star(k)``: an ordered k-star instance needs a centre with live
    out-degree >= k, so the universe only moves when a touched subject
    crosses that bound.  ``chain(k)``: a delta edge is itself a length-1
    walk; for k >= 2 it must attach to something — an edge into its
    subject, an edge out of its object (live degrees cover delta-
    internal chaining too, since the live backend already holds the
    delta).
    """
    if delta.shape[0] == 0:
        return False
    topology, size = shape
    if topology == "star":
        subjects = np.unique(delta[:, 0])
        keys, counts = backend.subject_degrees()
        return bool(
            (_degrees_of(subjects, keys, counts) >= size).any()
        )
    if topology == "chain":
        if size <= 1:
            return True
        s_keys, s_counts = backend.subject_degrees()
        o_keys, o_counts = backend.object_degrees()
        into = _degrees_of(np.unique(delta[:, 0]), o_keys, o_counts)
        outof = _degrees_of(np.unique(delta[:, 2]), s_keys, s_counts)
        return bool((into > 0).any() or (outof > 0).any())
    # Trees and anything else: no cheap structural bound; assume moved.
    return True


def plan_maintenance(
    store: TripleStore,
    watermark: Optional[Watermark],
    base: Optional[ColumnarBackend],
    records_by_shape: Dict[Shape, Sequence[QueryRecord]],
    grouping: GroupingStrategy,
    force_full: bool = False,
) -> MaintenancePlan:
    """Compute the plan for one maintenance run.

    *base* is the retained snapshot backend of the last
    materialization (``None`` when it is missing).  *records_by_shape*
    is the existing labelled materialization.  The returned plan is
    either a full rebuild with a reason, or an incremental plan naming
    the stale shapes, their affected record masks, and the grouping
    keys of the models to fine-tune.
    """
    num_records = {
        shape: len(records)
        for shape, records in records_by_shape.items()
    }

    def full(reason: str) -> MaintenancePlan:
        return MaintenancePlan(
            full=True, reason=reason, num_records=num_records
        )

    if force_full:
        return full("forced by --full")
    if watermark is None:
        return full("no watermark: first materialization")
    if base is None:
        return full("base snapshot missing")
    if not watermark.vocabulary_matches(store):
        return full(
            "vocabulary changed (node/predicate counts or dictionary)"
        )
    if len(store) < watermark.num_triples:
        return full(
            f"store shrank below the watermark "
            f"({len(store)} < {watermark.num_triples})"
        )
    if base.size != watermark.num_triples:
        return full(
            f"base snapshot ({base.size} triples) does not match the "
            f"watermark ({watermark.num_triples})"
        )

    delta = compute_delta(store, base)
    backend = store.backend
    plan = MaintenancePlan(
        full=False, delta_rows=delta, num_records=num_records
    )
    for shape in sorted(records_by_shape):
        records = records_by_shape[shape]
        mask = affected_mask(records, delta)
        if mask.any() or _universe_moved(shape, delta, backend):
            plan.stale_shapes.append(shape)
            plan.affected[shape] = mask
        else:
            plan.fresh_shapes.append(shape)
    seen = set()
    for topology, size in plan.stale_shapes:
        key = grouping.key(topology, size)
        if key not in seen:
            seen.add(key)
            plan.stale_keys.append(key)
    return plan
