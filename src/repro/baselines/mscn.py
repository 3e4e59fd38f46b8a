"""MSCN: multi-set convolutional network (Kipf et al., CIDR 2019),
adapted to knowledge-graph queries as in the paper's evaluation.

Each triple pattern becomes one element of a set; a shared MLP embeds
every element, elements are mean-pooled, and a head MLP predicts the
scaled cardinality.  Following the paper's adaptation: the "table" set is
trivial (one RDF relation with self-joins), so only the predicate set
remains, and each element carries

- the binary encodings of its subject / predicate / object (zero when
  unbound) plus bound flags,
- optionally a bitmap over ``n`` materialised sample triples: bit j says
  whether the pattern matches sample j (MSCN-0 has no bitmap, MSCN-1k a
  1000-bit one).

Trained on the same labelled queries as LMKG-S, with the same log +
min-max target scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoders import make_encoders
from repro.core.estimator import Estimator
from repro.nn.layers import Linear, ReLU, Sequential, Sigmoid
from repro.nn.losses import QErrorLoss
from repro.nn.optimizers import Adam
from repro.nn.scaling import LogMinMaxScaler
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import TriplePattern, is_bound
from repro.sampling.workload import QueryRecord


@dataclass(frozen=True)
class MSCNConfig:
    """MSCN hyperparameters; ``num_samples`` selects the variant
    (0 → MSCN-0, 1000 → MSCN-1k)."""

    num_samples: int = 0
    hidden_units: int = 128
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0


class MSCN(Estimator):
    """Set-based supervised estimator."""

    def __init__(
        self,
        store: TripleStore,
        max_size: int,
        config: Optional[MSCNConfig] = None,
    ) -> None:
        self.store = store
        self.max_size = max_size
        self.config = config if config is not None else MSCNConfig()
        self.name = (
            "mscn-0"
            if self.config.num_samples == 0
            else f"mscn-{self.config.num_samples // 1000}k"
            if self.config.num_samples % 1000 == 0
            else f"mscn-{self.config.num_samples}"
        )
        node_enc, pred_enc = make_encoders(
            max(store.num_nodes, 1), max(store.num_predicates, 1), "binary"
        )
        self._nodes = node_enc
        self._preds = pred_enc
        self._samples = self._materialize_samples()
        if self._samples:
            sample_array = np.array(self._samples, dtype=np.int64)
            self._sample_s = sample_array[:, 0]
            self._sample_p = sample_array[:, 1]
            self._sample_o = sample_array[:, 2]
        self.element_width = (
            node_enc.width + pred_enc.width + node_enc.width + 2
            + self.config.num_samples
        )
        self.scaler = LogMinMaxScaler()
        self._shared: Optional[Sequential] = None
        self._head: Optional[Sequential] = None
        self._optimizer: Optional[Adam] = None

    def _materialize_samples(self) -> List[Tuple[int, int, int]]:
        if self.config.num_samples == 0:
            return []
        rng = np.random.default_rng(self.config.seed + 5)
        triples = sorted(self.store)
        idx = rng.choice(
            len(triples),
            size=min(self.config.num_samples, len(triples)),
            replace=False,
        )
        samples = [triples[i] for i in idx]
        # Pad by repetition when the graph is smaller than the budget.
        while len(samples) < self.config.num_samples:
            samples.append(samples[len(samples) % len(idx)])
        return samples

    # ------------------------------------------------------------------
    # Featurization
    # ------------------------------------------------------------------

    def _pattern_features(self, tp: TriplePattern) -> np.ndarray:
        parts = [
            self._nodes.encode(tp.s),
            np.array([1.0 if is_bound(tp.s) else 0.0]),
            self._preds.encode(tp.p),
            self._nodes.encode(tp.o),
            np.array([1.0 if is_bound(tp.o) else 0.0]),
        ]
        if self._samples:
            matches = np.ones(self.config.num_samples, dtype=bool)
            if is_bound(tp.s):
                matches &= self._sample_s == tp.s
            if is_bound(tp.p):
                matches &= self._sample_p == tp.p
            if is_bound(tp.o):
                matches &= self._sample_o == tp.o
            parts.append(matches.astype(np.float64))
        return np.concatenate(parts)

    def featurize(
        self, queries: Sequence[QueryPattern]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(elements, mask): shapes (n, k, f) and (n, k)."""
        n = len(queries)
        # float32 halves the footprint of sample-bitmap featurization on
        # large training sets; precision is irrelevant for 0/1 features.
        elements = np.zeros(
            (n, self.max_size, self.element_width), dtype=np.float32
        )
        mask = np.zeros((n, self.max_size))
        for qi, query in enumerate(queries):
            if query.size > self.max_size:
                raise ValueError(
                    f"query size {query.size} exceeds model max "
                    f"{self.max_size}"
                )
            for ti, tp in enumerate(query.triples):
                elements[qi, ti] = self._pattern_features(tp)
                mask[qi, ti] = 1.0
        return elements, mask

    # ------------------------------------------------------------------
    # Model
    # ------------------------------------------------------------------

    def _build(self) -> None:
        rng = np.random.default_rng(self.config.seed)
        h = self.config.hidden_units
        self._shared = Sequential(
            [
                Linear(self.element_width, h, rng, init="he", name="set0"),
                ReLU(),
                Linear(h, h, rng, init="he", name="set1"),
                ReLU(),
            ]
        )
        self._head = Sequential(
            [
                Linear(h, h, rng, init="he", name="head0"),
                ReLU(),
                Linear(h, 1, rng, name="head1"),
                Sigmoid(),
            ]
        )
        self._optimizer = Adam(
            self._shared.parameters() + self._head.parameters(),
            lr=self.config.learning_rate,
            clip_norm=5.0,
        )

    def _forward(
        self, elements: np.ndarray, mask: np.ndarray, training: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (prediction (n,1), pooled hidden) and caches shapes."""
        n, k, f = elements.shape
        flat = elements.reshape(n * k, f)
        hidden = self._shared.forward(flat, training=training)
        hidden = hidden.reshape(n, k, -1)
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        pooled = (hidden * mask[:, :, None]).sum(axis=1) / counts
        pred = self._head.forward(pooled, training=training)
        self._cache = (n, k, mask, counts)
        return pred, pooled

    def _backward(self, grad_pred: np.ndarray) -> None:
        n, k, mask, counts = self._cache
        grad_pooled = self._head.backward(grad_pred)
        grad_hidden = (
            grad_pooled[:, None, :] * mask[:, :, None] / counts[:, :, None]
        )
        self._shared.backward(grad_hidden.reshape(n * k, -1))

    # ------------------------------------------------------------------
    # Training / estimation
    # ------------------------------------------------------------------

    def fit(self, records: Sequence[QueryRecord]) -> List[float]:
        """Train until convergence on labelled queries; returns losses."""
        if not records:
            raise ValueError("cannot train on an empty workload")
        queries = [r.query for r in records]
        cards = np.array([r.cardinality for r in records], dtype=np.float64)
        elements, mask = self.featurize(queries)
        targets = self.scaler.fit_transform(cards).reshape(-1, 1)
        self._build()
        loss_fn = QErrorLoss(self.scaler.span)
        rng = np.random.default_rng(self.config.seed)
        n = len(records)
        history: List[float] = []
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, self.config.batch_size):
                idx = order[start: start + self.config.batch_size]
                pred, _ = self._forward(
                    elements[idx], mask[idx], training=True
                )
                loss, grad = loss_fn(pred, targets[idx])
                self._backward(grad)
                self._optimizer.step()
                epoch_loss += loss
                batches += 1
            history.append(epoch_loss / max(batches, 1))
        return history

    def _estimate_batch(self, queries) -> np.ndarray:
        """Vectorized estimation: one featurize + one forward per batch."""
        if self._head is None:
            raise RuntimeError("estimate() before fit()")
        elements, mask = self.featurize(list(queries))
        pred, _ = self._forward(elements, mask, training=False)
        return self.scaler.inverse(pred.ravel())

    def memory_bytes(self) -> int:
        """Model parameters plus the materialised sample triples."""
        if self._head is None:
            raise RuntimeError("model not built yet")
        params = sum(
            p.size
            for p in self._shared.parameters() + self._head.parameters()
        )
        return params * 4 + len(self._samples) * 3 * 8
