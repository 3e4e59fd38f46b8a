"""Tests for optimisers, the regressor loop, and target scaling."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    LogMinMaxScaler,
    MSELoss,
    QErrorLoss,
    Regressor,
    build_mlp,
)
from repro.nn.layers import Parameter


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter("w", np.array([5.0, -3.0]))

    def test_adam_descends_quadratic(self):
        param = self._quadratic_param()
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            param.grad[...] = 2 * param.value
            opt.step()
        assert np.allclose(param.value, 0.0, atol=1e-3)

    def test_step_clears_gradients(self):
        param = self._quadratic_param()
        opt = Adam([param], lr=0.1)
        param.grad[...] = 1.0
        opt.step()
        assert np.allclose(param.grad, 0.0)

    def test_gradient_clipping_bounds_norm(self):
        param = Parameter("w", np.zeros(4))
        opt = Adam([param], lr=0.1, clip_norm=1.0)
        param.grad[...] = 100.0
        opt._clip_gradients()
        assert np.linalg.norm(param.grad) <= 1.0 + 1e-9

    def test_step_matches_textbook_adam_bitwise(self, rng):
        """The in-place step equals the out-of-place formula, bit for bit.

        Clipping is on and fires, and one parameter's gradient is zero.
        """
        lr, beta1, beta2, eps, clip = 3e-3, 0.9, 0.999, 1e-8, 1.0
        shapes = [(7, 3), (5,), (2, 4)]
        params = [
            Parameter(f"p{k}", rng.normal(size=shape))
            for k, shape in enumerate(shapes)
        ]
        opt = Adam(params, lr=lr, clip_norm=clip)
        values = [p.value.copy() for p in params]
        m = [np.zeros_like(v) for v in values]
        v = [np.zeros_like(x) for x in values]
        for t in range(1, 4):
            grads = [10.0 * rng.normal(size=shape) for shape in shapes]
            grads[1] = np.zeros(shapes[1])
            for param, grad in zip(params, grads):
                param.grad[...] = grad
            opt.step()
            norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads))
            assert norm > clip
            grads = [g * (clip / (norm + 1e-12)) for g in grads]
            for k, grad in enumerate(grads):
                m[k] = beta1 * m[k] + (1.0 - beta1) * grad
                v[k] = beta2 * v[k] + (1.0 - beta2) * grad ** 2
                m_hat = m[k] / (1.0 - beta1 ** t)
                v_hat = v[k] / (1.0 - beta2 ** t)
                values[k] = values[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for k, param in enumerate(params):
                assert np.array_equal(param.value, values[k]), (t, k)
                assert not param.grad.any()


class TestScaler:
    def test_transform_range(self):
        scaler = LogMinMaxScaler()
        cards = np.array([1, 10, 100, 1000])
        z = scaler.fit_transform(cards)
        assert z.min() == 0.0 and z.max() == 1.0

    def test_inverse_roundtrip(self):
        scaler = LogMinMaxScaler()
        cards = np.array([1.0, 7.0, 50.0, 9000.0])
        assert np.allclose(scaler.inverse(scaler.fit_transform(cards)), cards)

    def test_zero_cardinalities_clamped(self):
        scaler = LogMinMaxScaler()
        z = scaler.fit_transform(np.array([0, 5, 25]))
        assert z[0] == 0.0

    def test_degenerate_targets(self):
        scaler = LogMinMaxScaler()
        z = scaler.fit_transform(np.array([8, 8, 8]))
        assert np.allclose(z, 0.0)
        assert np.allclose(scaler.inverse(z), 8.0)

    def test_span_positive(self):
        scaler = LogMinMaxScaler().fit(np.array([1, 100]))
        assert scaler.span > 0

    def test_use_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            LogMinMaxScaler().transform(np.array([1.0]))

    def test_state_roundtrip(self):
        scaler = LogMinMaxScaler().fit(np.array([2, 2000]))
        restored = LogMinMaxScaler.from_state(scaler.state())
        x = np.array([0.0, 0.5, 1.0])
        assert np.allclose(restored.inverse(x), scaler.inverse(x))


class TestRegressor:
    def test_learns_monotone_function(self, rng):
        x = rng.random((300, 6))
        y = x.sum(axis=1) * 20 + 1
        scaler = LogMinMaxScaler()
        z = scaler.fit_transform(y)
        reg = Regressor(
            build_mlp(6, [32, 32], rng), QErrorLoss(scaler.span), lr=2e-3
        )
        history = reg.fit(x, z, epochs=60, batch_size=64, seed=0)
        assert history.losses[-1] < history.losses[0]
        pred = scaler.inverse(reg.predict(x))
        q = np.maximum(pred / y, y / pred)
        assert np.mean(q) < 1.5

    def test_mismatched_shapes_rejected(self, rng):
        reg = Regressor(build_mlp(4, [8], rng), MSELoss())
        with pytest.raises(ValueError):
            reg.fit(np.ones((5, 4)), np.ones(4))

    def test_predict_single_vector(self, rng):
        reg = Regressor(build_mlp(4, [8], rng), MSELoss())
        reg.fit(np.ones((10, 4)), np.full(10, 0.5), epochs=1)
        out = reg.predict(np.ones(4))
        assert out.shape == (1,)

    def test_predict_between_forward_and_backward(self, rng):
        """Inference records no backward state: a ``predict`` (the
        validation pass of ``fit``, a served request during a
        fine-tune) between a training forward and its backward must
        leave the gradients what they would have been without it."""
        net = build_mlp(4, [8, 8], rng)
        reg = Regressor(net, MSELoss())
        x, other = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        upstream = rng.normal(size=(6, 1))

        def gradients(interleave):
            for param in net.parameters():
                param.zero_grad()
            net.forward(x, training=True)
            if interleave:
                reg.predict(other)
            net.backward(upstream)
            return [param.grad.copy() for param in net.parameters()]

        for expected, got in zip(gradients(False), gradients(True)):
            assert np.array_equal(expected, got)

    def test_fused_forward_leaves_its_input_alone(self, rng):
        """The in-place activations run on a private copy."""
        from repro.nn.layers import ReLU, Sequential

        x = rng.normal(size=(5, 3)).astype(np.float32)
        before = x.copy()
        out = Sequential([ReLU()]).forward_fused(x)
        assert np.array_equal(x, before)
        assert np.array_equal(out, np.maximum(before, 0))

    def test_fused_sigmoid_matches_the_layer_bit_for_bit(self):
        """The fused head computes the two branches of Sigmoid.forward,
        so at the inference dtype both agree exactly, edges included."""
        from repro.nn.layers import Sequential, Sigmoid

        x = np.concatenate(
            [
                [0.0, -0.0, np.inf, -np.inf, 88.0, -88.0, 1e-8, -1e-8],
                np.linspace(-30.0, 30.0, 601),
            ]
        ).astype(np.float32)[None, :]
        expected = Sigmoid().forward(x.copy())
        got = Sequential([Sigmoid()]).forward_fused(x)
        assert got.dtype == np.float32
        assert np.array_equal(got, expected)

    def test_fused_forward_follows_training(self, rng):
        """The fused casts are rebuilt once an optimizer step moves the
        weights: a prediction after more training is the new
        network's, not the one cached by the first prediction."""
        reg = Regressor(build_mlp(4, [8], rng), MSELoss())
        x, y = rng.random((16, 4)), rng.random(16)
        before = reg.predict(x)
        reg.fit(x, y, epochs=3, batch_size=4)
        after = reg.predict(x)
        assert not np.array_equal(before, after)
        assert np.allclose(
            after, reg.network.forward(x).ravel(), rtol=0, atol=1e-5
        )

    def test_memory_accounting(self, rng):
        reg = Regressor(build_mlp(4, [8], rng), MSELoss())
        assert reg.memory_bytes() == reg.num_parameters() * 4
