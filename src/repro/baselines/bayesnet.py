"""Bayesian-network + chain-histogram baseline (Huang & Liu, CIKM 2011).

The paper's related work [14] combines two synopses: a Bayesian network
capturing the joint distribution over *correlated properties* for star
query patterns, and a *chain histogram* for chain query patterns.  This
module reconstructs both from the published description:

- :class:`StarBayesNet` learns a Chow–Liu tree over per-subject
  predicate-presence indicators — the maximum-spanning-tree over
  pairwise mutual information, the textbook tractable BN — so the
  probability that a subject emits *all* predicates of a star query is
  estimated with first-order correlations instead of full independence.
  Bound objects contribute their per-predicate selectivity; unbound
  objects contribute the mean out-fanout of their predicate.
- :class:`ChainHistogram` stores the exact two-step join counts
  ``J(p, q) = |{(a p b), (b q c)}|`` and estimates a chain as a Markov
  (bigram) product — exact for length 2, first-order beyond.

:class:`BayesNetEstimator` routes star queries to the BN, chains to the
histogram, and anything else to an independence fallback, mirroring how
Huang & Liu dispatch on the query pattern class.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.independence import IndependenceEstimator
from repro.core.estimator import Estimator
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import Variable, is_bound


def _mutual_information(
    joint_11: float, p1: float, p2: float, total: float
) -> float:
    """Mutual information of two binary indicators from their counts."""
    if total <= 0:
        return 0.0
    mi = 0.0
    # Joint cell counts for (a, b) in {0,1}^2 derived from the marginals.
    cells = {
        (1, 1): joint_11,
        (1, 0): p1 - joint_11,
        (0, 1): p2 - joint_11,
        (0, 0): total - p1 - p2 + joint_11,
    }
    for (a, b), count in cells.items():
        if count <= 0:
            continue
        p_ab = count / total
        p_a = (p1 if a else total - p1) / total
        p_b = (p2 if b else total - p2) / total
        mi += p_ab * math.log(p_ab / (p_a * p_b))
    return mi


class StarBayesNet:
    """Chow–Liu tree over predicate-presence indicators of subjects.

    ``prob_all_present(preds)`` answers "what fraction of subjects emit
    every predicate in *preds*" using the tree factorisation
    ``P(x) = P(root) * prod P(child | parent)`` — one conditional per
    tree edge, exact pairwise correlations, no independence assumption
    between predicates connected in the tree.
    """

    def __init__(self, store: TripleStore, max_predicates: int = 512) -> None:
        self.store = store
        subjects = list(store.subjects())
        self.num_subjects = len(subjects)
        # Presence counts: how many subjects emit p, and emit both p, q.
        single: Dict[int, int] = defaultdict(int)
        pair: Dict[Tuple[int, int], int] = defaultdict(int)
        backend = store.backend
        for s in subjects:
            preds = backend.out_predicates(s).tolist()
            for i, p in enumerate(preds):
                single[p] += 1
                for q in preds[i + 1:]:
                    pair[(p, q)] += 1
        # Keep the most frequent predicates when the vocabulary is huge
        # (YAGO regime); the tail falls back to marginals.
        ranked = sorted(single, key=lambda p: -single[p])
        self.predicates: List[int] = sorted(ranked[:max_predicates])
        self._single = dict(single)
        self._pair = dict(pair)
        self._parent: Dict[int, Optional[int]] = {}
        self._build_tree()

    def _pair_count(self, p: int, q: int) -> int:
        if p > q:
            p, q = q, p
        return self._pair.get((p, q), 0)

    def _build_tree(self) -> None:
        """Maximum spanning tree over pairwise mutual information (Prim)."""
        preds = self.predicates
        if not preds:
            return
        in_tree: Set[int] = {preds[0]}
        self._parent[preds[0]] = None
        remaining = set(preds[1:])
        while remaining:
            best: Optional[Tuple[float, int, int]] = None
            for q in remaining:
                for p in in_tree:
                    mi = _mutual_information(
                        self._pair_count(p, q),
                        self._single.get(p, 0),
                        self._single.get(q, 0),
                        self.num_subjects,
                    )
                    if best is None or mi > best[0]:
                        best = (mi, p, q)
            assert best is not None
            _, parent, child = best
            self._parent[child] = parent
            in_tree.add(child)
            remaining.discard(child)

    def marginal(self, p: int) -> float:
        """P(subject emits predicate *p*)."""
        if self.num_subjects == 0:
            return 0.0
        return self._single.get(p, 0) / self.num_subjects

    def conditional(self, child: int, parent: int) -> float:
        """P(child present | parent present), with add-half smoothing."""
        parent_count = self._single.get(parent, 0)
        if parent_count == 0:
            return self.marginal(child)
        return (self._pair_count(parent, child) + 0.5) / (parent_count + 1.0)

    def prob_all_present(self, preds: Sequence[int]) -> float:
        """P(subject emits every predicate in *preds*) under the tree.

        Query predicates form a sub-forest of the Chow–Liu tree: each is
        conditioned on its nearest *queried* ancestor; roots of the
        sub-forest use their marginal.  Predicates outside the tree
        (rare tail) contribute their marginal.
        """
        wanted = set(preds)
        prob = 1.0
        for p in sorted(wanted):
            if p not in self._parent:
                prob *= self.marginal(p)
                continue
            ancestor = self._parent.get(p)
            while ancestor is not None and ancestor not in wanted:
                ancestor = self._parent.get(ancestor)
            if ancestor is None:
                prob *= self.marginal(p)
            else:
                prob *= self.conditional(p, ancestor)
        return prob

    def memory_bytes(self) -> int:
        """Tree edges plus one marginal and conditional per predicate."""
        return len(self.predicates) * 3 * 8


class ChainHistogram:
    """Bigram join statistics for chain queries (Huang & Liu's second half).

    Stores, for every predicate pair ``(p, q)``, the exact number of
    two-step paths ``a -p-> b -q-> c``.  A k-step chain is estimated with
    the Markov approximation: the exact first join, then per-step
    expansion ratios ``J(p_i, p_{i+1}) / |p_i|``.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self._joins: Dict[Tuple[int, int], int] = defaultdict(int)
        self._pred_counts: Dict[int, int] = {
            p: store.predicate_count(p) for p in store.predicates()
        }
        backend = store.backend
        for s, p, o in store:
            for q in backend.out_slice(o)[0].tolist():
                self._joins[(p, q)] += 1
        self._joins = dict(self._joins)

    def join_count(self, p: int, q: int) -> int:
        """Exact number of 2-chains via predicates *p* then *q*."""
        return self._joins.get((p, q), 0)

    def estimate_chain(self, predicates: Sequence[int]) -> float:
        """Estimated count of an all-unbound chain over *predicates*."""
        if not predicates:
            return 0.0
        if len(predicates) == 1:
            return float(self._pred_counts.get(predicates[0], 0))
        estimate = float(self.join_count(predicates[0], predicates[1]))
        for prev, nxt in zip(predicates[1:], predicates[2:]):
            base = self._pred_counts.get(prev, 0)
            if base == 0:
                return 0.0
            estimate *= self.join_count(prev, nxt) / base
        return estimate

    def memory_bytes(self) -> int:
        return (len(self._joins) + len(self._pred_counts)) * 8


class BayesNetEstimator(Estimator):
    """Huang & Liu-style estimator: BN for stars, bigram histogram for
    chains, independence fallback elsewhere.

    Requires bound predicates (as do all competitors in §VIII's test
    query generation); queries with unbound predicates fall back to the
    independence estimator.
    """

    name = "bayesnet"

    def __init__(self, store: TripleStore, max_predicates: int = 512) -> None:
        self.store = store
        self.star_model = StarBayesNet(store, max_predicates=max_predicates)
        self.chain_model = ChainHistogram(store)
        self._fallback = IndependenceEstimator(store)

    def _estimate_one(self, query: QueryPattern) -> float:
        if any(not is_bound(tp.p) for tp in query.triples):
            return self._fallback.estimate(query)
        topology = query.topology()
        if topology == Topology.SINGLE:
            return float(self.store.count_pattern(query.triples[0]))
        if topology == Topology.STAR:
            return self._estimate_star(query)
        if topology == Topology.CHAIN:
            return self._estimate_chain(query)
        return self._fallback.estimate(query)

    # ------------------------------------------------------------------
    # Star queries
    # ------------------------------------------------------------------

    def _estimate_star(self, query: QueryPattern) -> float:
        centre = query.triples[0].s
        if is_bound(centre):
            # Bound centre: exact per-arm counts multiply (objects are
            # independent arms of one subject).
            product = 1.0
            for tp in query.triples:
                product *= float(self.store.count_pattern(tp))
            return product
        preds = [tp.p for tp in query.triples]
        prob = self.star_model.prob_all_present(preds)
        expected = self.star_model.num_subjects * prob
        for tp in query.triples:
            pred_total = float(self.store.predicate_count(tp.p))
            emitting = self.star_model._single.get(tp.p, 0)
            if is_bound(tp.o):
                # Selectivity of the bound object within its predicate.
                if pred_total == 0:
                    return 0.0
                matches = float(
                    self.store.backend.count_po(tp.p, tp.o)
                )
                expected *= matches / max(emitting, 1)
            else:
                # Unbound object: mean fanout of subjects emitting p.
                expected *= pred_total / max(emitting, 1)
        return expected

    # ------------------------------------------------------------------
    # Chain queries
    # ------------------------------------------------------------------

    def _estimate_chain(self, query: QueryPattern) -> float:
        preds = [tp.p for tp in query.triples]
        estimate = self.chain_model.estimate_chain(preds)
        if estimate == 0.0:
            return 0.0
        # Bound endpoints scale the all-unbound estimate by the bound
        # term's share of its predicate's triples.
        first, last = query.triples[0], query.triples[-1]
        if is_bound(first.s):
            base = self.store.predicate_count(first.p)
            matched = self.store.backend.count_sp(first.s, first.p)
            estimate *= matched / max(base, 1)
        if is_bound(last.o):
            base = self.store.predicate_count(last.p)
            matched = self.store.backend.count_po(last.p, last.o)
            estimate *= matched / max(base, 1)
        return estimate

    def memory_bytes(self) -> int:
        return (
            self.star_model.memory_bytes()
            + self.chain_model.memory_bytes()
        )
