"""Training loop and regressor wrapper for dense networks.

:class:`Regressor` packages a :class:`~repro.nn.layers.Sequential` body, a
loss, and the minibatch loop; LMKG-S and the MSCN baseline both sit on top
of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.layers import Dropout, Linear, ReLU, Sequential, Sigmoid
from repro.nn.losses import Loss, MSELoss
from repro.nn.optimizers import Adam


@dataclass
class TrainingHistory:
    """Per-epoch records produced by :meth:`Regressor.fit`."""

    losses: List[float] = field(default_factory=list)


def build_mlp(
    input_dim: int,
    hidden_sizes: List[int],
    rng: np.random.Generator,
    dropout: float = 0.0,
) -> Sequential:
    """The LMKG-S architecture of Fig. 3: FC + ReLU stacks, sigmoid head.

    Dropout (when > 0) follows each hidden activation, mirroring the
    dropout box in the figure.
    """
    layers: List = []
    prev = input_dim
    for i, width in enumerate(hidden_sizes):
        layers.append(Linear(prev, width, rng, init="he", name=f"fc{i}"))
        layers.append(ReLU())
        if dropout > 0.0:
            layers.append(Dropout(dropout, rng))
        prev = width
    layers.append(Linear(prev, 1, rng, init="glorot", name="head"))
    layers.append(Sigmoid())
    return Sequential(layers)


class Regressor:
    """A dense network trained to map feature vectors to a scalar in [0,1]."""

    def __init__(
        self,
        network: Sequential,
        loss: Optional[Loss] = None,
        lr: float = 1e-3,
    ) -> None:
        self.network = network
        self.loss = loss if loss is not None else MSELoss()
        self.optimizer = Adam(network.parameters(), lr=lr, clip_norm=5.0)

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        epochs: int = 100,
        batch_size: int = 128,
        seed: int = 0,
    ) -> TrainingHistory:
        """Minibatch training; targets must already be scaled to [0, 1]."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on batch size")
        rng = np.random.default_rng(seed)
        history = TrainingHistory()
        n = features.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start: start + batch_size]
                pred = self.network.forward(features[idx], training=True)
                loss_value, grad = self.loss(pred, targets[idx])
                self.network.backward(grad)
                self.optimizer.step()
                epoch_loss += loss_value
                batches += 1
            history.losses.append(epoch_loss / max(batches, 1))
        return history

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Forward pass without dropout; returns a flat float64 array.

        Runs on the fused float32 inference path
        (:meth:`~repro.nn.layers.Sequential.forward_fused`) — the same
        dtype policy as the masked networks: float64 masters for
        training, version-cached float32 casts for serving.
        """
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        if single:
            features = features[None, :]
        out = (
            self.network.forward_fused(features)
            .astype(np.float64)
            .ravel()
        )
        return out[0:1] if single else out

    def num_parameters(self) -> int:
        return self.network.num_parameters()

    def memory_bytes(self) -> int:
        """Checkpoint size at float32 precision."""
        return self.num_parameters() * 4
