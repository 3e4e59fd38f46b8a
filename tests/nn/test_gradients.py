"""Finite-difference validation of every backward pass.

The substrate has no autograd; these tests are the safety net that the
hand-written gradients (dense layers, masked layers, embeddings, losses,
the MADE trunk) are exact.
"""

import numpy as np
import pytest

from repro.nn import MADE, Linear, ReLU, Sequential, Sigmoid
from repro.nn.losses import (
    MSELoss,
    QErrorLoss,
    softmax_cross_entropy,
)

EPS = 1e-6


def numeric_grad(fn, array):
    """Central-difference gradient of scalar fn w.r.t. array entries."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        plus = fn()
        flat[i] = original - EPS
        minus = fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * EPS)
    return grad


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestDenseGradients:
    def test_linear_weight_and_bias(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float(layer.forward(x).sum())

        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        assert np.allclose(
            layer.weight.grad, numeric_grad(loss, layer.weight.value),
            atol=1e-5,
        )
        assert np.allclose(
            layer.bias.grad, numeric_grad(loss, layer.bias.value),
            atol=1e-5,
        )

    def test_linear_input_gradient(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float(layer.forward(x).sum())

        layer.forward(x)
        grad_in = layer.backward(np.ones((4, 2)))
        assert np.allclose(grad_in, numeric_grad(loss, x), atol=1e-5)

    def test_mlp_end_to_end(self, rng):
        net = Sequential(
            [Linear(4, 8, rng), ReLU(), Linear(8, 1, rng), Sigmoid()]
        )
        x = rng.normal(size=(5, 4))
        target = rng.random((5, 1))
        loss_fn = MSELoss()

        def loss():
            pred = net.forward(x)
            value, _ = loss_fn(pred, target)
            return value

        pred = net.forward(x)
        _, grad = loss_fn(pred, target)
        net.backward(grad)
        for param in net.parameters():
            numeric = numeric_grad(loss, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-4), param.name


class TestLossGradients:
    @pytest.mark.parametrize(
        "loss_fn",
        [MSELoss(), QErrorLoss(span=3.0)],
        ids=["mse", "q_error"],
    )
    def test_loss_gradient_matches_numeric(self, loss_fn, rng):
        pred = rng.random((6, 1)) * 0.8 + 0.1
        target = rng.random((6, 1)) * 0.8 + 0.1

        def loss():
            value, _ = loss_fn(pred, target)
            return value

        _, grad = loss_fn(pred, target)
        assert np.allclose(grad, numeric_grad(loss, pred), atol=1e-4)

    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)

        # softmax_cross_entropy consumes its logits: evaluate on copies.
        def loss():
            value, _ = softmax_cross_entropy(logits.copy(), targets)
            return value

        _, grad = softmax_cross_entropy(logits.copy(), targets)
        assert np.allclose(grad, numeric_grad(loss, logits), atol=1e-5)


class TestMADEGradients:
    @pytest.mark.parametrize("residual", [False, True], ids=["made", "resmade"])
    def test_nll_gradients_exact(self, residual, rng):
        model = MADE(
            var_vocabs=[0, 1, 0],
            vocab_sizes=[6, 4],
            embed_dim=3,
            hidden_sizes=(10, 10),
            residual=residual,
            seed=1,
        )
        ids = rng.integers(1, 4, size=(5, 3))

        def loss():
            # The float64 master trunk: central differences at 1e-6 are
            # meaningless against the fused float32 inference forward.
            logits = model.forward(ids, training=True)
            total = 0.0
            for i in range(3):
                value, _ = softmax_cross_entropy(logits[i], ids[:, i])
                total += value
            return total

        for param in model.parameters():
            param.zero_grad()
        model.loss_and_backward(ids)
        for param in model.parameters():
            numeric = numeric_grad(loss, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-4), param.name


def _textbook_cross_entropy(logits, targets):
    """Out-of-place softmax cross-entropy: (loss, dlogits)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    idx = (np.arange(batch), targets)
    log_probs = shifted[idx] - np.log(exp.sum(axis=1))
    grad = probs
    grad[idx] -= 1.0
    grad /= batch
    return float(-log_probs.mean()), grad


def _reference_step(model, ids):
    """One training step from forward(training=True) and the textbook loss.

    Returns the loss and a copy of every gradient; leaves them zeroed.
    """
    for param in model.parameters():
        param.zero_grad()
    logits = model.forward(ids, training=True)
    out = model._trunk_train(ids)  # the same trunk, for its out blocks
    embed = model.embed_dim
    total = 0.0
    grad_out = np.zeros_like(out)
    for i in range(model.num_vars):
        table = model.tables[model.var_vocabs[i]]
        block = out[:, i * embed: (i + 1) * embed]
        loss_i, dlogits = _textbook_cross_entropy(logits[i], ids[:, i])
        total += loss_i
        model.out_bias[i].grad += dlogits.sum(axis=0)
        grad_out[:, i * embed: (i + 1) * embed] = dlogits @ table.value
        table.grad += dlogits.T @ block
    grad_h = model._backward_hidden(model.out_proj.backward(grad_out))
    model._backward_embedding(grad_h, ids, ids.shape[0])
    grads = {p.name: p.grad.copy() for p in model.parameters()}
    for param in model.parameters():
        param.zero_grad()
    return total, grads


class TestTrainingStepIdentity:
    """loss_and_backward's in-place head is the textbook step, bitwise."""

    @pytest.mark.parametrize("residual", [False, True], ids=["made", "resmade"])
    @pytest.mark.parametrize(
        "batch, vocab_sizes",
        [(24, [64, 7]), (48, [9, 130])],
        ids=["node-wider", "predicate-wider"],
    )
    def test_loss_and_grads_array_equal(
        self, residual, batch, vocab_sizes, rng
    ):
        model = MADE(
            var_vocabs=[0, 1, 0, 1, 0],
            vocab_sizes=vocab_sizes,
            embed_dim=8,
            hidden_sizes=(32, 32),
            residual=residual,
            seed=4,
        )
        ids = np.stack(
            [
                rng.integers(0, vocab_sizes[v], size=batch)
                for v in model.var_vocabs
            ],
            axis=1,
        )
        expected_loss, expected = _reference_step(model, ids)
        loss = model.loss_and_backward(ids)
        assert loss == expected_loss
        for param in model.parameters():
            assert np.array_equal(param.grad, expected[param.name]), (
                param.name
            )

    def test_cross_entropy_consumes_its_logits(self, rng):
        logits = rng.normal(size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        expected_loss, expected = _textbook_cross_entropy(logits, targets)
        loss, grad = softmax_cross_entropy(logits, targets)
        assert grad is logits
        assert loss == expected_loss
        assert np.array_equal(grad, expected)
