"""Workload generation: labelled training sets and bucketed test queries.

Mirrors the paper's experimental protocol (§VIII):

- queries are grouped into buckets by result size, with boundaries at
  powers of 5 (``[5^0, 5^1), [5^1, 5^2), ...``, last bucket ``[5^6, 5^9)``),
- test sets draw (up to) the same number of queries per bucket,
- queries keep predicates bound and include at least one unbound variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.rdf.fastcount import count_query
from repro.rdf.parallel import label_queries
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.sampling.random_walk import sample_instances
from repro.sampling.unbinding import query_from_instance, random_unbound_mask

#: Bucket boundaries: bucket i holds cardinalities in [5^i, 5^(i+1)),
#: except the last, which stretches to 5^9 (the paper's "[5^6, 5^9)").
NUM_BUCKETS = 7


def bucket_of(cardinality: int) -> Optional[int]:
    """Result-size bucket index of a cardinality, None for empty results."""
    if cardinality < 1:
        return None
    bucket = int(math.log(cardinality) / math.log(5))
    return min(bucket, NUM_BUCKETS - 1)


def bucket_label(bucket: int) -> str:
    """Human-readable bucket range like the paper's x-axis labels."""
    if bucket == NUM_BUCKETS - 1:
        return "[5^6,5^9)"
    return f"[5^{bucket},5^{bucket + 1})"


@dataclass(frozen=True)
class QueryRecord:
    """One labelled query: the pattern, its shape, and its cardinality."""

    query: QueryPattern
    topology: str
    size: int
    cardinality: int

    @property
    def bucket(self) -> Optional[int]:
        return bucket_of(self.cardinality)


@dataclass
class Workload:
    """A labelled set of queries for one (topology, size) combination."""

    topology: str
    size: int
    records: List[QueryRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def cardinalities(self) -> np.ndarray:
        return np.array([r.cardinality for r in self.records])

    def by_bucket(self) -> Dict[int, List[QueryRecord]]:
        buckets: Dict[int, List[QueryRecord]] = {}
        for record in self.records:
            bucket = record.bucket
            if bucket is not None:
                buckets.setdefault(bucket, []).append(record)
        return buckets

    def split(
        self, train_fraction: float, seed: int = 0
    ) -> Tuple["Workload", "Workload"]:
        """Shuffled train/test split preserving topology and size."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.records))
        cut = int(len(self.records) * train_fraction)
        train = [self.records[i] for i in order[:cut]]
        test = [self.records[i] for i in order[cut:]]
        return (
            Workload(self.topology, self.size, train),
            Workload(self.topology, self.size, test),
        )


def generate_workload(
    store: TripleStore,
    topology: str,
    size: int,
    num_queries: int,
    seed: int = 0,
    max_instances: Optional[int] = None,
    workers: Optional[int] = 1,
    snapshot_dir: Union[str, Path, None] = None,
) -> Workload:
    """Sample, unbind, deduplicate, and label queries of one shape.

    Instances are drawn uniformly from the store, each is
    turned into a query by unbinding a random subset of its nodes, exact
    duplicates (up to variable renaming) are dropped, and every query is
    labelled with its exact cardinality.

    Labeling dominates generation cost.  With ``workers > 1`` (or
    ``workers=None`` for one per core) the deduplicated queries are
    sharded across a process pool in which every worker memory-maps the
    same read-only snapshot (:mod:`repro.rdf.parallel`) — pass
    *snapshot_dir* to attach to an existing on-disk snapshot of *store*,
    otherwise one is written to a temporary directory for the pool.
    Counts and record order are identical to the serial path for every
    worker count.
    """
    rng = np.random.default_rng(seed + 1)
    budget = max_instances if max_instances is not None else num_queries * 4
    instances, _ = sample_instances(store, topology, size, budget, seed=seed)
    # Sampling/unbinding/dedup is cheap and order-defining, so it stays
    # serial; only the cardinality labeling below is sharded.
    seen = set()
    queries: List[QueryPattern] = []
    for instance in instances:
        if len(queries) >= num_queries:
            break
        mask = random_unbound_mask(size + 1, rng)
        query = query_from_instance(topology, instance, mask)
        key = query.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        queries.append(query)
    cardinalities = label_queries(
        queries, store=store, snapshot_dir=snapshot_dir, workers=workers
    )
    records: List[QueryRecord] = []
    for query, cardinality in zip(queries, cardinalities):
        if cardinality < 1:
            # Unbinding a sampled instance always matches at least the
            # instance itself; zero would mean a counting bug.
            raise AssertionError(
                f"sampled query with zero cardinality: {query}"
            )
        records.append(QueryRecord(query, topology, size, cardinality))
    return Workload(topology, size, records)


def generate_test_queries(
    store: TripleStore,
    topology: str,
    size: int,
    per_bucket: int,
    seed: int = 100,
) -> Workload:
    """Bucket-balanced test queries, the paper's 600-query protocol.

    Draws a candidate pool 12 times the target size and keeps up to
    *per_bucket* queries per
    result-size bucket.  Buckets with large cardinalities are naturally
    sparse (the paper notes the same), so the returned workload may hold
    fewer than ``per_bucket * NUM_BUCKETS`` queries.
    """
    candidates = generate_workload(
        store,
        topology,
        size,
        num_queries=per_bucket * NUM_BUCKETS * 12,
        seed=seed,
        max_instances=per_bucket * NUM_BUCKETS * 24,
    )
    kept: Dict[int, List[QueryRecord]] = {}
    for record in candidates.records:
        bucket = record.bucket
        if bucket is None:
            continue
        slot = kept.setdefault(bucket, [])
        if len(slot) < per_bucket:
            slot.append(record)
    records = [r for bucket in sorted(kept) for r in kept[bucket]]
    return Workload(topology, size, records)
