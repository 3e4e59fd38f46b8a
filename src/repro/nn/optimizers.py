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
    """Adam (Kingma & Ba) — the optimiser used for all learned models.

    After the first step, :meth:`step` allocates no per-parameter array:
    the moments are updated in place, ``lr * m_hat / (sqrt(v_hat) +
    eps)`` is built in one scratch array shared by every parameter
    (sized to the largest), and the gradient buffer, which the step
    clears anyway, is consumed as the second workspace.  Each operation
    keeps the operands and the order of the textbook out-of-place form,
    so the updated weights are bit for bit the same.
    """

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
        self._scratch = np.empty(
            max((p.size for p in self.parameters), default=0)
        )

    def _scratch_for(self, param: Parameter) -> np.ndarray:
        return self._scratch[: param.size].reshape(param.value.shape)

    def step(self) -> None:
        self._t += 1
        if self.clip_norm > 0.0:
            self._clip_gradients()
        m_scale = 1.0 - self.beta1 ** self._t
        v_scale = 1.0 - self.beta2 ** self._t
        for param in self.parameters:
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = self._m[key] = np.zeros_like(param.value)
                v = self._v[key] = np.zeros_like(param.value)
            grad = param.grad
            scratch = self._scratch_for(param)
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=scratch)
            # v = beta2 * v + (1 - beta2) * grad ** 2; grad is spent here.
            v *= self.beta2
            np.square(grad, out=grad)
            grad *= 1.0 - self.beta2
            v += grad
            # value -= lr * m_hat / (sqrt(v_hat) + eps)
            denom = np.divide(v, v_scale, out=grad)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = np.divide(m, m_scale, out=scratch)
            update *= self.lr
            update /= denom
            param.value -= update
            # Invalidate the fused float32 inference caches derived from
            # this master (see MaskedLinear.fused / MADE table shadows).
            param.bump_version()
            param.zero_grad()

    def _clip_gradients(self) -> None:
        total = 0.0
        for param in self.parameters:
            squares = np.square(param.grad, out=self._scratch_for(param))
            total += float(np.sum(squares))
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for param in self.parameters:
                param.grad *= scale
