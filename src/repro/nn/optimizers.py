"""First-order optimisers over :class:`~repro.nn.layers.Parameter` lists."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Protocol: ``step()`` applies and then clears accumulated grads."""

    def __init__(self, parameters: List[Parameter]) -> None:
        self.parameters = list(parameters)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the optimiser used for all learned models."""

    def __init__(
        self,
        parameters: List[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        if self.clip_norm > 0.0:
            self._clip_gradients()
        for param in self.parameters:
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param.value)
                v = np.zeros_like(param.value)
            grad = param.grad
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            self._m[key] = m
            self._v[key] = v
            m_hat = m / (1.0 - self.beta1 ** self._t)
            v_hat = v / (1.0 - self.beta2 ** self._t)
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            # Invalidate the fused float32 inference caches derived from
            # this master (see MaskedLinear.fused / MADE table shadows).
            param.bump_version()
            param.zero_grad()

    def _clip_gradients(self) -> None:
        total = 0.0
        for param in self.parameters:
            total += float(np.sum(param.grad ** 2))
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for param in self.parameters:
                param.grad *= scale
