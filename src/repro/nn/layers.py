"""Feed-forward layers with explicit forward/backward passes.

This is the dense-network half of the substrate that replaces TensorFlow
in this reproduction (the autoregressive half lives in
:mod:`repro.nn.masked`).  Layers follow one protocol:

- ``forward(x, training)`` consumes a ``(batch, features)`` array and
  caches whatever the backward pass needs,
- ``backward(grad)`` consumes the loss gradient w.r.t. the layer output,
  accumulates parameter gradients, and returns the gradient w.r.t. the
  layer input,
- ``parameters()`` exposes :class:`Parameter` objects for the optimiser.

Exact analytic gradients, minibatch friendly, no autograd tape — the
models in the paper are small MLPs, so explicit backprop is both faster
and easier to verify (see tests/nn/test_gradients.py for finite-difference
checks).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.initializers import glorot_uniform, he_uniform


class Parameter:
    """A trainable array plus its accumulated gradient.

    Values are always float64 — the training "masters".  Derived
    representations (the fused float32 inference weights of
    :class:`~repro.nn.masked.MaskedLinear`, the float32 embedding-table
    shadows of :class:`~repro.nn.masked.MADE`) are cached against
    :attr:`version`, which every code path that rewrites :attr:`value`
    must bump via :meth:`bump_version` — the optimisers do it per step,
    the checkpoint loaders after restoring.
    """

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.version = 0

    @property
    def size(self) -> int:
        return self.value.size

    def bump_version(self) -> None:
        """Mark :attr:`value` as mutated so derived caches rebuild."""
        self.version += 1

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Layer:
    """Base class; stateless layers only override forward/backward."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Linear(Layer):
    """Fully connected layer ``y = x W + b``.

    Besides the float64 training weights, the layer keeps a fused
    inference cast from :meth:`fused` — the masters cast once to the
    inference dtype and cached against the parameter version counters,
    the same discipline as
    :meth:`repro.nn.masked.MaskedLinear.fused`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        init: str = "glorot",
        name: str = "linear",
    ) -> None:
        if init == "glorot":
            weights = glorot_uniform(rng, in_features, out_features)
        elif init == "he":
            weights = he_uniform(rng, in_features, out_features)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(f"{name}.weight", weights)
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features))
        self._input: Optional[np.ndarray] = None
        self._fused: Optional[tuple] = None
        self._fused_key: Optional[tuple] = None

    def fused(self, dtype=np.float32) -> tuple:
        """``(weight, bias)`` at the inference dtype, version-cached.

        Rebuilt only when an optimiser step or checkpoint restore bumps
        a parameter version — the inference hot path never casts.
        """
        key = (self.weight.version, self.bias.version, np.dtype(dtype))
        if self._fused_key != key:
            self._fused = (
                self.weight.value.astype(key[2]),
                self.bias.value.astype(key[2]),
            )
            self._fused_key = key
        return self._fused

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None, "backward before forward"
        self.weight.grad += self._input.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Rectified linear activation, the hidden activation of LMKG-S."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad * self._mask


class Sigmoid(Layer):
    """Sigmoid activation, the output activation of LMKG-S."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Numerically stable piecewise formulation.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._output is not None
        return grad * self._output * (1.0 - self._output)


class Dropout(Layer):
    """Inverted dropout; active only when ``training=True``."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (
            self._rng.random(x.shape) < keep
        ).astype(np.float64) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Sequential(Layer):
    """Chains layers; the container behind LMKG-S and MSCN heads."""

    def __init__(self, layers: List[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def forward_fused(self, x: np.ndarray, dtype=np.float32) -> np.ndarray:
        """Inference-only forward on the fused parameter casts.

        Dense layers run one GEMM against their version-cached
        :meth:`Linear.fused` weights; Dropout is an identity at
        inference; ReLU and Sigmoid are applied here, on a private copy
        of *x*, not through the layers' ``forward``, which would
        overwrite the ``_mask`` / ``_output`` a pending ``backward``
        still needs.  No backward state is recorded.
        """
        x = np.array(x, dtype=dtype)
        for layer in self.layers:
            if isinstance(layer, Linear):
                weight, bias = layer.fused(dtype)
                x = x @ weight
                x += bias
            elif isinstance(layer, Dropout):
                continue
            elif isinstance(layer, ReLU):
                np.maximum(x, 0, out=x)
            elif isinstance(layer, Sigmoid):
                # The two branches of Sigmoid.forward: 1 / (1 + exp(-x))
                # for x >= 0 and exp(x) / (1 + exp(x)) below, where
                # exp(min(x, 0)) is the numerator of both and exp(-|x|)
                # the denominator's exponential.  Without np.where or
                # out= arguments: on a one-row block the call overhead
                # of each numpy call is the cost.
                x = np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x)))
            else:
                x = layer.forward(x, training=False)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())
