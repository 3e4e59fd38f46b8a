"""Unit tests for dense layers: shapes, semantics, parameter exposure."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_affine_map(self, rng):
        layer = Linear(2, 1, rng)
        layer.weight.value[...] = [[2.0], [3.0]]
        layer.bias.value[...] = [1.0]
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[6.0]])

    def test_backward_accumulates_gradients(self, rng):
        layer = Linear(2, 2, rng)
        layer.forward(np.ones((3, 2)))
        layer.backward(np.ones((3, 2)))
        assert np.allclose(layer.bias.grad, [3.0, 3.0])

    def test_parameters_listed(self, rng):
        layer = Linear(2, 2, rng)
        assert len(layer.parameters()) == 2

    def test_unknown_init_rejected(self, rng):
        with pytest.raises(ValueError):
            Linear(2, 2, rng, init="magic")


class TestActivations:
    def test_relu_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.5]]))
        assert np.allclose(out, [[0.0, 0.5]])

    def test_relu_gradient_mask(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 0.5]]))
        grad = relu.backward(np.array([[1.0, 1.0]]))
        assert np.allclose(grad, [[0.0, 1.0]])

    def test_sigmoid_range_and_midpoint(self):
        out = Sigmoid().forward(np.array([[-5.0, 0.0, 5.0]]))
        assert np.all(out > 0) and np.all(out < 1)
        assert np.isclose(out[0, 1], 0.5)
        assert out[0, 0] < 0.01 and out[0, 2] > 0.99

    def test_sigmoid_extreme_inputs_finite(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))


class TestDropout:
    def test_inactive_at_inference(self, rng):
        layer = Dropout(0.5, rng)
        x = np.ones((4, 4))
        assert np.allclose(layer.forward(x, training=False), x)

    def test_active_in_training(self, rng):
        layer = Dropout(0.5, rng)
        out = layer.forward(np.ones((100, 100)), training=True)
        dropped = np.mean(out == 0)
        assert 0.3 < dropped < 0.7

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.3, rng)
        out = layer.forward(np.ones((200, 200)), training=True)
        assert abs(out.mean() - 1.0) < 0.05

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestSequential:
    def test_chains_layers(self, rng):
        net = Sequential([Linear(3, 4, rng), ReLU(), Linear(4, 1, rng)])
        out = net.forward(np.ones((2, 3)))
        assert out.shape == (2, 1)

    def test_parameter_count(self, rng):
        net = Sequential([Linear(3, 4, rng), Linear(4, 2, rng)])
        assert net.num_parameters() == (3 * 4 + 4) + (4 * 2 + 2)
