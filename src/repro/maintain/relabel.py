"""Incremental relabeling of the training-query materialization.

The labelled workload is the maintenance subsystem's "incremental
table": regenerating it is the single most expensive part of a refit
(exact counting of thousands of BGPs), yet a small triple delta can
only change the labels of queries whose patterns *touch* the delta.
``affected_mask`` computes that set exactly — a query's cardinality can
change only if some delta triple matches some of its triple patterns
on the bound positions — and ``relabel_records`` re-counts just those
queries against the live store, merging the fresh labels into the
existing materialization in place of the stale ones (dbt's
``merge``-on-unique-key, with the query pattern as the key).

The mask is a *necessary* condition for additions: an added triple not
matching any pattern of a query cannot enter any of its bindings, so
unaffected labels stay exact — no tolerance involved.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.rdf.fastcount import count_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import is_bound
from repro.sampling.workload import QueryRecord

#: delta rows per broadcast block, bounding the (patterns x delta)
#: boolean intermediate to a few MB regardless of delta size
_DELTA_BLOCK = 4_096


def _pattern_matrix(
    records: Sequence[QueryRecord],
) -> "tuple[np.ndarray, np.ndarray]":
    """Flatten all triple patterns into one ``(P, 3)`` matrix.

    Bound positions hold the term id, unbound ones -1 (a wildcard that
    matches anything).  The second array maps each pattern row back to
    its record index.
    """
    rows: List[List[int]] = []
    owners: List[int] = []
    for ri, record in enumerate(records):
        for tp in record.query.triples:
            rows.append(
                [
                    int(t) if is_bound(t) else -1
                    for t in (tp.s, tp.p, tp.o)
                ]
            )
            owners.append(ri)
    if not rows:
        return (
            np.empty((0, 3), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.array(rows, dtype=np.int64),
        np.array(owners, dtype=np.int64),
    )


def affected_mask(
    records: Sequence[QueryRecord], delta_rows: np.ndarray
) -> np.ndarray:
    """Boolean mask over *records*: which labels the delta can touch.

    A record is affected iff at least one delta triple matches at least
    one of its triple patterns on every bound position.  Vectorised as
    a broadcast of the ``(P, 3)`` wildcard pattern matrix against the
    delta block — one boolean reduction, no Python-level loop over the
    (patterns x delta) cross product.
    """
    mask = np.zeros(len(records), dtype=bool)
    delta_rows = np.asarray(delta_rows, dtype=np.int64).reshape(-1, 3)
    if len(records) == 0 or delta_rows.shape[0] == 0:
        return mask
    patterns, owners = _pattern_matrix(records)
    wildcard = patterns < 0
    for lo in range(0, delta_rows.shape[0], _DELTA_BLOCK):
        block = delta_rows[lo: lo + _DELTA_BLOCK]
        # (P, D, 3): pattern matches triple where bound-equal or wild.
        hits = (
            (patterns[:, None, :] == block[None, :, :])
            | wildcard[:, None, :]
        ).all(axis=2)
        mask[owners[hits.any(axis=1)]] = True
        if mask.all():
            break
    return mask


def relabel_records(
    store: TripleStore,
    records: Sequence[QueryRecord],
    mask: np.ndarray,
) -> List[QueryRecord]:
    """Re-count the masked records against *store* and merge.

    Returns a new record list in the original order: unaffected records
    pass through untouched (their labels are still exact), affected
    ones carry the live store's cardinality.
    """
    records = list(records)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != len(records):
        raise ValueError(
            f"mask covers {mask.shape[0]} records, got {len(records)}"
        )
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        return records
    # Same labeler as generate_workload's serial path: the shape-
    # specialised counters, falling back to the generic join.
    fresh = [
        count_query(store, records[i].query) for i in indices
    ]
    merged = records[:]
    for i, card in zip(indices, fresh):
        old = records[i]
        merged[i] = QueryRecord(
            query=old.query,
            topology=old.topology,
            size=old.size,
            cardinality=int(card),
        )
    return merged
