"""Pattern-instance sampling: the training-data generators of §VII-A.

LMKG-U learns a distribution over the *bound* graph-pattern instances of a
given shape; at estimation time the cardinality of a query is
``N_shape * P(bound terms)`` where ``N_shape`` is the number of shape
instances in the graph.  This module provides, for the two supported
shapes:

- exact universe counts (``count_star_instances`` /
  ``count_chain_instances``),
- **exact uniform** instance samplers — subjects drawn proportional to
  ``outdeg^k`` for stars, walks drawn via the walk-count dynamic program
  for chains — giving unbiased training data,
- the paper's **biased random walk** (uniform steps from start nodes the
  caller draws), the one walk behind both RW strategies of
  :mod:`repro.sampling.strategies`: the paper attributes LMKG-U's
  residual error largely to RW sample quality.

All samplers draw against the columnar store
(:mod:`repro.rdf.columnar`): a walk step indexes a contiguous SPO
adjacency slice with a vectorized RNG draw, and ``sample_many`` produces
whole batches step-synchronously — per-level edge-weight prefix sums
turn each weighted step for *every* walk at once into one
``np.searchsorted``.  No Python adjacency lists are rebuilt.

A star instance of size k is the ordered tuple ``(s, p1, o1, ..., pk, ok)``
with k out-edges of the same subject, repetition allowed — exactly the
universe whose counting measure matches SPARQL bag semantics for star
queries with distinct object variables.  A chain instance is a directed
walk ``(n1, p1, n2, ..., pk, nk+1)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdf.columnar import ColumnarBackend
from repro.rdf.store import TripleStore

#: A flattened bound instance: [n1, p1, n2, ...] term ids.
Instance = Tuple[int, ...]


def count_star_instances(store: TripleStore, size: int) -> int:
    """Number of ordered star instances of *size* = sum_s outdeg(s)^size.

    Computed over the columnar degree vector with Python-int powers, so
    the result is exact even when it exceeds int64 (hub-heavy graphs at
    large sizes do).
    """
    if size < 1:
        raise ValueError("star size must be >= 1")
    _, degrees = store.backend.subject_degrees()
    return sum(d ** size for d in degrees.tolist())


def chain_walk_counts(
    store: TripleStore, size: int
) -> List[Dict[int, int]]:
    """DP tables g_i: node -> number of walks of length i starting there.

    ``g_0(v) = 1``; ``g_i(v) = sum over out-edges (p, o) of g_{i-1}(o)``.
    Returns ``[g_0, g_1, ..., g_size]``.  Exact (arbitrary-precision
    Python ints); the samplers use the float64 array variant
    :func:`_chain_walk_arrays` internally.
    """
    if size < 1:
        raise ValueError("chain size must be >= 1")
    col = store.backend
    nodes = col.nodes().tolist()
    src = col.spo_s.tolist()
    dst = col.spo_o.tolist()
    tables: List[Dict[int, int]] = [{v: 1 for v in nodes}]
    for _ in range(size):
        prev = tables[-1]
        current: Dict[int, int] = {}
        for s, o in zip(src, dst):
            ways = prev.get(o, 0)
            if ways:
                current[s] = current.get(s, 0) + ways
        tables.append(current)
    return tables


def count_chain_instances(store: TripleStore, size: int) -> int:
    """Number of directed walks with *size* edges (exact)."""
    if size < 1:
        raise ValueError("chain size must be >= 1")
    arrays = _chain_walk_arrays(store.backend, size)
    return _exact_chain_universe(store, size, arrays)


def _exact_chain_universe(
    store: TripleStore,
    size: int,
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]],
) -> int:
    """Exact walk count from precomputed DP arrays.

    Every intermediate level must fit comfortably in int64 before the
    integer DP can be trusted: int64 additions wrap silently, and a hub
    level can overflow even when the final total is small.  The float
    levels are monotone (no wrap-around), so they are a safe guard.
    """
    nodes, src_idx, dst_idx, levels = arrays
    safe = float(2 ** 62)
    if all(
        float(level.max(initial=0.0)) < safe for level in levels
    ) and float(levels[size].sum()) < safe:
        # The float DP is exact below 2^53 per entry; redo the reduction
        # in int64 to return an exact integer (no rounding at this size).
        g = np.ones(nodes.size, dtype=np.int64)
        for _ in range(size):
            nxt = np.zeros(g.size, dtype=np.int64)
            np.add.at(nxt, src_idx, g[dst_idx])
            g = nxt
        return int(g.sum())
    # Potentially beyond int64: fall back to the exact Python DP.
    return sum(chain_walk_counts(store, size)[size].values())


def _chain_walk_arrays(
    col: ColumnarBackend, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
    """Float64 walk-count DP over the compacted node space.

    Returns ``(nodes, src_idx, dst_idx, [g_0 .. g_size])`` where the
    edge arrays index into *nodes* for every SPO-ordered edge.
    """
    nodes = col.nodes()
    src_idx = np.searchsorted(nodes, col.spo_s)
    dst_idx = np.searchsorted(nodes, col.spo_o)
    levels = [np.ones(nodes.size, dtype=np.float64)]
    for _ in range(size):
        levels.append(
            np.bincount(
                src_idx,
                weights=levels[-1][dst_idx],
                minlength=nodes.size,
            )
        )
    return nodes, src_idx, dst_idx, levels


class StarSampler:
    """Uniform sampler over ordered star instances of one size."""

    def __init__(
        self, store: TripleStore, size: int, seed: int = 0
    ) -> None:
        self.store = store
        self.size = size
        self._rng = np.random.default_rng(seed)
        col = store.backend
        self._col = col
        subjects, degrees = col.subject_degrees()
        weights = degrees.astype(np.float64) ** size
        total = weights.sum()
        if total == 0:
            raise ValueError("store has no out-edges to sample stars from")
        self._subjects = subjects
        self._degrees = degrees
        self._starts = np.searchsorted(col.spo_s, subjects)
        self._probs = weights / total
        self.universe = count_star_instances(store, size)

    def sample(self) -> Instance:
        """One uniform ordered star instance (s, p1, o1, ..., pk, ok)."""
        return self.sample_many(1)[0]

    def sample_many(self, count: int) -> List[Instance]:
        """A batch of uniform star instances, drawn fully vectorized."""
        if count <= 0:
            return []
        rng = self._rng
        sidx = rng.choice(self._subjects.size, size=count, p=self._probs)
        # k uniform edge picks per star from each subject's SPO slice.
        offsets = rng.integers(
            0, self._degrees[sidx][:, None], size=(count, self.size)
        )
        eidx = self._starts[sidx][:, None] + offsets
        flat = np.empty((count, 2 * self.size + 1), dtype=np.int64)
        flat[:, 0] = self._subjects[sidx]
        flat[:, 1::2] = self._col.spo_p[eidx]
        flat[:, 2::2] = self._col.spo_o[eidx]
        return [tuple(row) for row in flat.tolist()]


class ChainSampler:
    """Uniform sampler over directed walks of one length."""

    #: float64 loses integer resolution past 2^53; the global prefix
    #: sums additionally need headroom against absorption (an edge
    #: weight below the ulp of the running total would vanish), so the
    #: vectorized path is used only while counts stay below 2^52.
    _FLOAT_EXACT = float(2 ** 52)

    def __init__(
        self, store: TripleStore, size: int, seed: int = 0
    ) -> None:
        self.store = store
        self.size = size
        self._rng = np.random.default_rng(seed)
        col = store.backend
        self._col = col
        arrays = _chain_walk_arrays(col, size)
        nodes, _, dst_idx, levels = arrays
        start_weights = levels[size]
        total = start_weights.sum()
        if total == 0:
            raise ValueError(f"no walks of length {size} exist")
        self.universe = _exact_chain_universe(store, size, arrays)
        self._exact_tables: Optional[List[Dict[int, int]]] = None
        # Absorption is governed by the *running totals* of the global
        # prefix sums (an edge weight below the ulp of the total would
        # get a zero-width interval), so guard on those, not on
        # individual level entries.
        if float(total) > self._FLOAT_EXACT or any(
            float(levels[rem - 1][dst_idx].sum()) > self._FLOAT_EXACT
            for rem in range(1, size + 1)
        ):
            # Walk counts beyond float64 integer resolution: the global
            # prefix sums would quantize low-weight edges to zero-width
            # intervals.  Sample per node from the exact Python tables
            # instead (full relative precision within each fan-out).
            self._exact_tables = chain_walk_counts(store, size)
            starts = sorted(self._exact_tables[size].keys())
            weights = np.array(
                [float(self._exact_tables[size][v]) for v in starts]
            )
            self._exact_starts = starts
            self._exact_start_cdf = np.cumsum(weights / weights.sum())
            return
        self._nodes = nodes
        self._dst_idx = dst_idx
        self._start_probs = start_weights / total
        # Per-node bounds into the SPO edge arrays.
        self._lo = np.searchsorted(col.spo_s, nodes, side="left")
        self._hi = np.searchsorted(col.spo_s, nodes, side="right")
        # One exclusive prefix sum of edge weights per remaining-length
        # level: a weighted step for a whole batch of walks is then a
        # single searchsorted against the level's prefix array.
        self._prefix = {
            rem: np.concatenate(
                ([0.0], np.cumsum(levels[rem - 1][dst_idx]))
            )
            for rem in range(1, size + 1)
        }

    def sample(self) -> Instance:
        """One uniform walk (n1, p1, n2, ..., pk, nk+1)."""
        return self.sample_many(1)[0]

    def _sample_one_exact(self) -> Instance:
        """Per-node weighted walk from the exact DP tables."""
        rng = self._rng
        tables = self._exact_tables
        assert tables is not None
        node = self._exact_starts[
            int(np.searchsorted(self._exact_start_cdf, rng.random()))
        ]
        flat: List[int] = [node]
        backend = self.store.backend
        for remaining in range(self.size, 0, -1):
            table = tables[remaining - 1]
            preds, objs = backend.out_slice(node)
            weights = np.array(
                [float(table.get(o, 0)) for o in objs.tolist()]
            )
            cdf = np.cumsum(weights / weights.sum())
            pick = int(np.searchsorted(cdf, rng.random()))
            node = int(objs[pick])
            flat.extend((int(preds[pick]), node))
        return tuple(flat)

    def sample_many(self, count: int) -> List[Instance]:
        """A batch of uniform walks, drawn step-synchronously."""
        if count <= 0:
            return []
        if self._exact_tables is not None:
            return [self._sample_one_exact() for _ in range(count)]
        rng = self._rng
        col = self._col
        cur = rng.choice(
            self._nodes.size, size=count, p=self._start_probs
        )
        flat = np.empty((count, 2 * self.size + 1), dtype=np.int64)
        flat[:, 0] = self._nodes[cur]
        for step, rem in enumerate(range(self.size, 0, -1)):
            prefix = self._prefix[rem]
            lo, hi = self._lo[cur], self._hi[cur]
            base = prefix[lo]
            # cur was drawn from g_rem > 0, so every walk has positive
            # continuation mass and the draw lands inside [lo, hi).
            targets = base + rng.random(count) * (prefix[hi] - base)
            eidx = np.searchsorted(prefix, targets, side="right") - 1
            eidx = np.clip(eidx, lo, hi - 1)
            flat[:, 1 + 2 * step] = col.spo_p[eidx]
            flat[:, 2 + 2 * step] = col.spo_o[eidx]
            cur = self._dst_idx[eidx]
        return [tuple(row) for row in flat.tolist()]


def _biased_rw_batch(
    store: TripleStore,
    topology: str,
    size: int,
    start: np.ndarray,
    rng: np.random.Generator,
) -> List[Instance]:
    """One vectorized batch of the paper's RW draws, one per start node.

    Every step picks an out-edge uniformly.  Dead-ended walks are
    dropped, so the batch may come back shorter than *start* (the
    caller retries).
    """
    col = store.backend
    count = start.size
    flat = np.empty((count, 2 * size + 1), dtype=np.int64)
    flat[:, 0] = start
    if topology == "star":
        # All k edges leave the start subject; a start without
        # out-edges is the only dead case.
        lo = np.searchsorted(col.spo_s, start, side="left")
        hi = np.searchsorted(col.spo_s, start, side="right")
        deg = hi - lo
        alive = deg > 0
        offsets = rng.integers(
            0, np.maximum(deg, 1)[:, None], size=(count, size)
        )
        eidx = np.minimum(
            lo[:, None] + offsets, max(col.spo_s.size - 1, 0)
        )
        flat[:, 1::2] = col.spo_p[eidx]
        flat[:, 2::2] = col.spo_o[eidx]
        return [tuple(row) for row in flat[alive].tolist()]
    alive = np.ones(count, dtype=bool)
    cur = start
    for step in range(size):
        lo = np.searchsorted(col.spo_s, cur, side="left")
        hi = np.searchsorted(col.spo_s, cur, side="right")
        deg = hi - lo
        alive &= deg > 0
        # Draw an offset even for dead walks (against a floor of 1) to
        # keep the batch rectangular; dead rows are filtered at the end,
        # so their clipped indices only need to stay in bounds.
        eidx = np.minimum(
            lo + rng.integers(0, np.maximum(deg, 1)),
            max(col.spo_s.size - 1, 0),
        )
        flat[:, 1 + 2 * step] = col.spo_p[eidx]
        flat[:, 2 + 2 * step] = col.spo_o[eidx]
        cur = col.spo_o[eidx]
    return [tuple(row) for row in flat[alive].tolist()]


def sample_instances(
    store: TripleStore,
    topology: str,
    size: int,
    count: int,
    seed: int = 0,
    method: str = "exact",
) -> Tuple[List[Instance], int]:
    """Sample *count* bound instances; returns (instances, universe size).

    *method* names a strategy of :mod:`repro.sampling.strategies`:
    ``'exact'`` (the default) uses the unbiased samplers, ``'rw'`` the
    paper's biased random walk, and ``degree_rw``, ``forest_fire`` and
    ``snowball`` the ablation's alternatives.  The universe size is
    exact whatever the method.
    """
    from repro.sampling.strategies import make_strategy

    strategy = make_strategy(method, store, topology, size, seed=seed)
    return strategy.sample_many(count), strategy.universe()
