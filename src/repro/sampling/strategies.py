"""Graph-sampling strategies for training-data creation (§VII-A ablation).

The paper settles on random-walk sampling citing Leskovec & Faloutsos
(KDD 2006) — RW is "biased towards highly connected nodes" and best
preserves the scaled-down property — and names sample quality as the
main cause of inaccurate estimates.  This module makes that design
choice testable by implementing the alternatives the KDD paper compares
plus quality metrics:

- :class:`ExactUniformStrategy` — the unbiased instance sampler (the
  repository's default; an oracle the heuristics are judged against).
- :class:`UniformStartRW` — the paper's RW: uniform start node, uniform
  steps (undersamples high-degree hubs relative to the instance
  universe).
- :class:`DegreeWeightedRW` — start node drawn proportional to
  out-degree, the "biased towards highly connected nodes" variant.
- :class:`ForestFireStrategy` — burn a subgraph per forest-fire
  sampling, then sample instances uniformly *within* the subgraph.
- :class:`SnowballStrategy` — BFS ball around random seeds, instances
  drawn within.

The two walks draw through the one vectorised walk of
:mod:`repro.sampling.random_walk` (the one ``sample_instances(...,
method='rw')`` runs); they differ only in their start nodes.

:func:`sample_quality` scores any strategy's output by how well it
preserves two scaled-down statistics that drive estimator accuracy: the
predicate distribution (total-variation distance) and the subject
out-degree distribution (two-sample Kolmogorov–Smirnov statistic).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.rdf.store import TripleStore
from repro.sampling.random_walk import (
    ChainSampler,
    Instance,
    StarSampler,
    _biased_rw_batch,
    chain_walk_counts,
    count_chain_instances,
    count_star_instances,
)


class InstanceStrategy:
    """Base class: every strategy yields bound instances of one shape."""

    #: identifier used in ablation tables
    name: str = "abstract"

    def __init__(
        self,
        store: TripleStore,
        topology: str,
        size: int,
        seed: int = 0,
    ) -> None:
        if topology not in ("star", "chain"):
            raise ValueError(f"unsupported topology {topology!r}")
        self.store = store
        self.topology = topology
        self.size = size
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def sample_many(self, count: int) -> List[Instance]:
        """Draw *count* bound instances (best effort for heuristics)."""
        raise NotImplementedError

    def universe(self) -> int:
        """Exact number of instances of this shape in the whole store."""
        if self.topology == "star":
            return count_star_instances(self.store, self.size)
        return count_chain_instances(self.store, self.size)


class ExactUniformStrategy(InstanceStrategy):
    """Unbiased sampling from the true instance universe."""

    name = "exact"

    def __init__(self, store, topology, size, seed=0):
        super().__init__(store, topology, size, seed)
        sampler_cls = StarSampler if topology == "star" else ChainSampler
        self._sampler = sampler_cls(store, size, seed=seed)

    def sample_many(self, count: int) -> List[Instance]:
        return self._sampler.sample_many(count)

    def universe(self) -> int:
        return self._sampler.universe


class UniformStartRW(InstanceStrategy):
    """The paper's §VII-A sampler: uniform start node, uniform steps."""

    name = "rw"

    def _starts(self, count: int) -> np.ndarray:
        nodes = self.store.backend.nodes()
        return nodes[self._rng.integers(nodes.size, size=count)]

    def sample_many(self, count: int) -> List[Instance]:
        instances: List[Instance] = []
        attempts = 0
        while len(instances) < count and attempts < count * 50:
            batch = count - len(instances)
            instances.extend(
                _biased_rw_batch(
                    self.store,
                    self.topology,
                    self.size,
                    self._starts(batch),
                    self._rng,
                )
            )
            attempts += batch
        return instances


class DegreeWeightedRW(UniformStartRW):
    """RW whose start node is drawn proportional to out-degree.

    The Leskovec & Faloutsos bias "towards highly connected nodes" made
    explicit; for star instances the residual bias against hubs shrinks
    from ``deg^k`` to ``deg^(k-1)``.
    """

    name = "degree_rw"

    def __init__(self, store, topology, size, seed=0):
        super().__init__(store, topology, size, seed)
        subjects, degrees = store.backend.subject_degrees()
        if subjects.size == 0:
            raise ValueError("store has no out-edges to start walks from")
        self._subjects = subjects
        self._probs = degrees / degrees.sum()

    def _starts(self, count: int) -> np.ndarray:
        return self._subjects[
            self._rng.choice(self._subjects.size, size=count, p=self._probs)
        ]


def _subgraph_store(store: TripleStore, nodes: Set[int]) -> TripleStore:
    """The induced subgraph over *nodes* as a fresh store."""
    sub = TripleStore()
    backend = store.backend
    for s in nodes:
        preds, objs = backend.out_slice(s)
        for p, o in zip(preds.tolist(), objs.tolist()):
            if o in nodes:
                sub.add(s, p, o)
    return sub


class _SubgraphStrategy(InstanceStrategy):
    """Shared machinery: burn/collect a node set, sample instances in it.

    Subclasses implement ``_collect(target_nodes) -> Set[int]``.  When
    the induced subgraph admits no instance of the wanted shape, the
    collection is retried with a larger target (up to a cap) before
    giving up with a ValueError.
    """

    #: fraction of the graph's nodes the subgraph aims for
    target_fraction: float = 0.2

    def _collect(self, target: int) -> Set[int]:
        raise NotImplementedError

    def _build_sampler(self):
        total = max(len(self.store.nodes()), 1)
        target = max(int(total * self.target_fraction), self.size + 1)
        sampler_cls = (
            StarSampler if self.topology == "star" else ChainSampler
        )
        for attempt in range(6):
            nodes = self._collect(min(target, total))
            sub = _subgraph_store(self.store, nodes)
            try:
                return sub, sampler_cls(sub, self.size, seed=self.seed)
            except ValueError:
                target = min(target * 2, total)
        raise ValueError(
            f"no {self.topology} instance of size {self.size} found in "
            f"sampled subgraphs"
        )

    def sample_many(self, count: int) -> List[Instance]:
        if not hasattr(self, "_sampler"):
            self._subgraph, self._sampler = self._build_sampler()
        return self._sampler.sample_many(count)


class ForestFireStrategy(_SubgraphStrategy):
    """Forest-fire subgraph sampling (Leskovec & Faloutsos, KDD 2006).

    A fire starts at a random node and burns each out-neighbour
    independently with probability ``burn_probability``; burned nodes
    propagate recursively.  New fires start until the target node count
    is reached.
    """

    name = "forest_fire"

    def __init__(self, store, topology, size, seed=0, burn_probability=0.7):
        super().__init__(store, topology, size, seed)
        self.burn_probability = burn_probability

    def _collect(self, target: int) -> Set[int]:
        nodes = self.store.nodes()
        burned: Set[int] = set()
        while len(burned) < target:
            frontier = deque(
                [nodes[int(self._rng.integers(len(nodes)))]]
            )
            while frontier and len(burned) < target:
                v = frontier.popleft()
                if v in burned:
                    continue
                burned.add(v)
                for o in self.store.backend.out_slice(v)[1].tolist():
                    if (
                        o not in burned
                        and self._rng.random() < self.burn_probability
                    ):
                        frontier.append(o)
        return burned


class SnowballStrategy(_SubgraphStrategy):
    """Snowball (BFS-ball) sampling: full neighbourhoods around seeds."""

    name = "snowball"

    def _collect(self, target: int) -> Set[int]:
        nodes = self.store.nodes()
        collected: Set[int] = set()
        while len(collected) < target:
            frontier = deque(
                [nodes[int(self._rng.integers(len(nodes)))]]
            )
            while frontier and len(collected) < target:
                v = frontier.popleft()
                if v in collected:
                    continue
                collected.add(v)
                for o in self.store.backend.out_slice(v)[1].tolist():
                    if o not in collected:
                        frontier.append(o)
        return collected


_STRATEGY_CLASSES = {
    cls.name: cls
    for cls in (
        ExactUniformStrategy,
        UniformStartRW,
        DegreeWeightedRW,
        ForestFireStrategy,
        SnowballStrategy,
    )
}


def strategy_names() -> List[str]:
    """All registered strategy identifiers."""
    return sorted(_STRATEGY_CLASSES)


def make_strategy(
    name: str,
    store: TripleStore,
    topology: str,
    size: int,
    seed: int = 0,
) -> InstanceStrategy:
    """Instantiate a sampling strategy by its registry name."""
    if name not in _STRATEGY_CLASSES:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {strategy_names()}"
        )
    return _STRATEGY_CLASSES[name](store, topology, size, seed=seed)


# ----------------------------------------------------------------------
# Scaled-down sample quality (Leskovec & Faloutsos's evaluation idea)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SampleQuality:
    """How well a sample preserves the graph's statistics.

    Attributes:
        predicate_tv: total-variation distance between the sample's
            predicate usage and the graph's triple-level predicate
            distribution (0 = perfectly scaled down).
        degree_ks: two-sample KS statistic between the out-degrees of
            sampled instance subjects and the instance-universe subject
            degrees (0 = same degree mix).
        distinct_terms: distinct term ids appearing in the sample — the
            coverage that decides whether rare terms are learnable.
    """

    predicate_tv: float
    degree_ks: float
    distinct_terms: int


def _ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic: max |ECDF_a - ECDF_b|."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    ecdf_a = np.searchsorted(a, pooled, side="right") / a.size
    ecdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(ecdf_a - ecdf_b).max())


def _instance_predicates(instances: Sequence[Instance]) -> List[int]:
    preds: List[int] = []
    for inst in instances:
        preds.extend(inst[1::2])
    return preds


def sample_quality(
    store: TripleStore,
    topology: str,
    size: int,
    instances: Sequence[Instance],
) -> SampleQuality:
    """Score *instances* against the graph's scaled-down statistics."""
    if not instances:
        raise ValueError("cannot score an empty sample")
    # Predicate distribution vs triple-level truth.
    truth_counts = {
        p: store.predicate_count(p) for p in store.predicates()
    }
    truth_total = sum(truth_counts.values())
    sample_preds = Counter(_instance_predicates(instances))
    sample_total = sum(sample_preds.values())
    predicates = set(truth_counts) | set(sample_preds)
    predicate_tv = 0.5 * sum(
        abs(
            truth_counts.get(p, 0) / truth_total
            - sample_preds.get(p, 0) / sample_total
        )
        for p in predicates
    )
    # Subject out-degree mix vs the instance universe's.  The universe
    # weights a start node by how many instances begin there: deg^k for
    # stars, the walk-count DP for chains.
    sample_degrees = [
        store.out_degree(inst[0]) for inst in instances
    ]
    universe_degrees: List[float] = []
    weights: List[float] = []
    if topology == "chain":
        walk_counts = chain_walk_counts(store, size)[size]
    for s in store.subjects():
        degree = store.out_degree(s)
        if degree == 0:
            continue
        if topology == "star":
            weight = float(degree) ** size
        else:
            weight = float(walk_counts.get(s, 0))
        if weight == 0.0:
            continue
        universe_degrees.append(degree)
        weights.append(weight)
    rng = np.random.default_rng(0)
    weights_arr = np.array(weights)
    reference = rng.choice(
        universe_degrees,
        size=max(len(sample_degrees), 200),
        p=weights_arr / weights_arr.sum(),
    )
    degree_ks = _ks_statistic(sample_degrees, reference)
    distinct = len({term for inst in instances for term in inst})
    return SampleQuality(
        predicate_tv=float(predicate_tv),
        degree_ks=degree_ks,
        distinct_terms=distinct,
    )
