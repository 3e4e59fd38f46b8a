"""Training losses for the estimators.

LMKG-S trains on cardinalities that were log-scaled and then min-max
scaled into [0, 1] (Section VI-A), with the *mean q-error* as the loss.
Because the scaling is affine in log space, the q-error of a prediction is
``exp(span * |pred - target|)`` where ``span = log_max - log_min``; both
the loss and its gradient are computed directly in scaled space.

LMKG-U trains with :func:`softmax_cross_entropy`, which works in place:
it consumes the ``(batch, classes)`` logits array it is given and returns
that same array as the gradient, so a training step allocates no
vocabulary-wide temporary.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Loss:
    """Protocol: ``__call__(pred, target) -> (scalar loss, grad wrt pred)``."""

    def __call__(
        self, pred: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        raise NotImplementedError


class MSELoss(Loss):
    """Mean squared error; the stable fallback used for ablations."""

    def __call__(
        self, pred: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        diff = pred - target
        loss = float(np.mean(diff ** 2))
        grad = 2.0 * diff / diff.size
        return loss, grad


class QErrorLoss(Loss):
    """Mean q-error on scaled log cardinalities.

    With scaled values z = (log y - log_min) / span, a prediction ẑ has
    q-error q = exp(span * |ẑ - z|).  The exponent is clipped to keep
    early-training gradients finite; within the clip the gradient is
    exact: dq/dẑ = span * sign(ẑ - z) * q.
    """

    def __init__(self, span: float, max_exponent: float = 12.0) -> None:
        if span <= 0:
            raise ValueError("span must be positive")
        self.span = span
        self.max_exponent = max_exponent

    def __call__(
        self, pred: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        diff = pred - target
        exponent = np.clip(
            self.span * np.abs(diff), 0.0, self.max_exponent
        )
        q = np.exp(exponent)
        loss = float(np.mean(q))
        # Zero gradient where the exponent is clipped would stall training;
        # keep the boundary slope instead.
        grad = self.span * np.sign(diff) * q / diff.size
        return loss, grad


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Cross-entropy over one categorical block; returns (loss, dlogits).

    *logits* is a float ``(batch, classes)`` array, *targets* integer class
    ids of shape ``(batch,)``.  The mean is over the batch.  Used
    per-variable by the autoregressive models.

    The routine **consumes** *logits*: it is overwritten in place by the
    shifted logits, their exponentials, the probabilities and finally the
    gradient, and the returned ``dlogits`` *is* that array.  Pass a copy
    to keep the logits.  No ``(batch, classes)`` temporary is allocated,
    and every operation sees the operands, in the order, of the textbook
    out-of-place form, so loss and gradient are bit for bit the same.
    """
    batch = logits.shape[0]
    idx = (np.arange(batch), targets)
    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[idx]
    np.exp(logits, out=logits)
    sums = logits.sum(axis=1, keepdims=True)
    loss = float(-(picked - np.log(sums[:, 0])).mean())
    logits /= sums
    logits[idx] -= 1.0
    logits /= batch
    return loss, logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, numerically stable."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
