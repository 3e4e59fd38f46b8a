"""Tests for MADE/ResMADE: the autoregressive property and training."""

import numpy as np
import pytest

from repro.nn import MADE, MaskedLinear, hidden_degrees
from repro.nn.losses import log_softmax


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestMaskedLinear:
    def test_masked_weights_have_no_effect(self, rng):
        mask = np.zeros((3, 2))
        layer = MaskedLinear(3, 2, mask, rng)
        out = layer.forward(rng.normal(size=(4, 3)))
        assert np.allclose(out, layer.bias.value)

    def test_mask_shape_checked(self, rng):
        with pytest.raises(ValueError):
            MaskedLinear(3, 2, np.ones((2, 3)), rng)

    def test_gradient_respects_mask(self, rng):
        mask = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer = MaskedLinear(3, 2, mask, rng)
        layer.forward(rng.normal(size=(4, 3)))
        layer.backward(np.ones((4, 2)))
        assert np.all(layer.weight.grad[mask == 0] == 0)


class TestDegrees:
    def test_degrees_in_valid_range(self, rng):
        degrees = hidden_degrees(5, 64, rng)
        assert degrees.min() >= 1
        assert degrees.max() <= 4

    def test_all_degrees_present(self, rng):
        degrees = hidden_degrees(5, 64, rng)
        assert set(degrees.tolist()) == {1, 2, 3, 4}

    def test_single_variable_degenerate(self, rng):
        assert np.all(hidden_degrees(1, 8, rng) == 1)


class TestAutoregressiveProperty:
    """Output i must be invariant to inputs at positions >= i."""

    @pytest.mark.parametrize("residual", [False, True], ids=["made", "resmade"])
    def test_logits_ignore_later_positions(self, residual, rng):
        model = MADE(
            var_vocabs=[0, 1, 0, 1, 0],
            vocab_sizes=[8, 5],
            embed_dim=4,
            hidden_sizes=(32, 32),
            residual=residual,
            seed=5,
        )
        base = rng.integers(1, 5, size=(6, 5))
        logits_base = model.forward(base)
        for position in range(5):
            perturbed = base.copy()
            # Scramble everything at and after `position`.
            perturbed[:, position:] = rng.integers(
                1, 5, size=perturbed[:, position:].shape
            )
            logits_perturbed = model.forward(perturbed)
            assert np.allclose(
                logits_base[position], logits_perturbed[position]
            ), f"position {position} leaked later inputs"

    def test_first_position_is_marginal(self, rng):
        model = MADE(
            var_vocabs=[0, 1, 0],
            vocab_sizes=[6, 4],
            embed_dim=4,
            hidden_sizes=(16,),
            seed=2,
        )
        a = model.forward(rng.integers(1, 4, size=(3, 3)))[0]
        b = model.forward(rng.integers(1, 4, size=(3, 3)))[0]
        assert np.allclose(a, b)


class TestDensityEstimation:
    def test_log_prob_sums_to_one_over_support(self, rng):
        """Exhaustive check: sum of P(x) over all sequences equals 1."""
        model = MADE(
            var_vocabs=[0, 1],
            vocab_sizes=[3, 3],
            embed_dim=3,
            hidden_sizes=(12,),
            seed=4,
        )
        grid = np.array(
            [(a, b) for a in range(3) for b in range(3)], dtype=np.int64
        )
        total = np.exp(model.log_prob(grid)).sum()
        assert np.isclose(total, 1.0, atol=1e-8)

    def test_training_learns_a_dependency(self, rng):
        """Train on data where x2 == x0; the conditional must sharpen."""
        n = 1200
        x0 = rng.integers(1, 5, size=n)
        x1 = rng.integers(1, 3, size=n)
        data = np.stack([x0, x1, x0], axis=1)
        model = MADE(
            var_vocabs=[0, 1, 0],
            vocab_sizes=[6, 4],
            embed_dim=8,
            hidden_sizes=(48, 48),
            seed=0,
        )
        history = model.fit(data, epochs=22, batch_size=128, lr=5e-3)
        assert history[-1] < history[0]
        logits = model.logits_for(
            np.array([[2, 1, 0], [4, 1, 0]]), position=2
        )
        probs = np.exp(log_softmax(logits))
        assert probs[0, 2] > 0.7
        assert probs[1, 4] > 0.7

    def test_conditionals_normalised(self, rng):
        model = MADE(
            var_vocabs=[0, 1, 0],
            vocab_sizes=[6, 4],
            embed_dim=4,
            hidden_sizes=(16,),
            seed=6,
        )
        ids = rng.integers(1, 4, size=(7, 3))
        for position in range(3):
            logits = model.logits_for(ids, position)
            probs = np.exp(log_softmax(logits))
            assert np.allclose(probs.sum(axis=1), 1.0)

    def test_logits_for_matches_forward(self, rng):
        model = MADE(
            var_vocabs=[0, 1, 0, 1, 0],
            vocab_sizes=[9, 5],
            embed_dim=4,
            hidden_sizes=(24, 24),
            seed=8,
        )
        ids = rng.integers(1, 5, size=(6, 5))
        full = model.forward(ids)
        for position in range(5):
            assert np.allclose(
                full[position], model.logits_for(ids, position)
            )


class TestSerialisationMeta:
    def test_state_roundtrip(self, rng, tmp_path):
        from repro.nn import load_arrays, save_arrays

        model = MADE(
            var_vocabs=[0, 1, 0],
            vocab_sizes=[6, 4],
            embed_dim=4,
            hidden_sizes=(16, 16),
            residual=True,
            seed=9,
        )
        ids = rng.integers(1, 4, size=(5, 3))
        expected = model.log_prob(ids)
        path = tmp_path / "made.npz"
        save_arrays(path, model.state())
        restored = MADE.from_state(load_arrays(path))
        assert np.allclose(restored.log_prob(ids), expected)
        assert restored.residual == model.residual
