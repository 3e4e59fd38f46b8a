"""Numerics of the fused float32 inference trunk (dtype policy, fused
caches, incremental sweep) against the float64 masters."""

import numpy as np
import pytest

from repro.nn import MADE, Adam
from repro.nn.losses import log_softmax


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _make_model(seed=3, hidden=(48, 48)):
    return MADE(
        var_vocabs=[0, 1, 0, 1, 0],
        vocab_sizes=[40, 12],
        embed_dim=8,
        hidden_sizes=hidden,
        residual=True,
        seed=seed,
    )


def _fit_a_little(model, rng, steps=6):
    data = rng.integers(1, 10, size=(64 * steps, model.num_vars))
    model.fit(data, epochs=1, batch_size=64, lr=1e-3)


class TestDtypePolicy:
    def test_masters_stay_float64_through_training(self, rng):
        model = _make_model()
        _fit_a_little(model, rng)
        for param in model.parameters():
            assert param.value.dtype == np.float64, param.name

    def test_masks_are_bool(self):
        model = _make_model()
        for layer in model.hidden_layers + [model.out_proj]:
            assert layer.mask.dtype == np.bool_

    def test_inference_logits_are_float32(self, rng):
        model = _make_model()
        ids = rng.integers(1, 10, size=(6, 5))
        for block in model.forward(ids):
            assert block.dtype == np.float32
        assert model.logits_for(ids, 2).dtype == np.float32

    def test_training_forward_is_float64(self, rng):
        model = _make_model()
        ids = rng.integers(1, 10, size=(6, 5))
        for block in model.forward(ids, training=True):
            assert block.dtype == np.float64


class TestFloat32Accuracy:
    """float32 vs float64 inference: relative-error bounds."""

    def test_log_prob_close_to_float64(self, rng):
        model = _make_model()
        _fit_a_little(model, rng)
        ids = rng.integers(1, 10, size=(32, 5))
        lp32 = model.log_prob(ids)
        model.set_inference_dtype(np.float64)
        lp64 = model.log_prob(ids)
        model.set_inference_dtype(np.float32)
        assert np.allclose(lp32, lp64, rtol=1e-4, atol=1e-4)

    def test_conditionals_close_to_float64(self, rng):
        model = _make_model()
        _fit_a_little(model, rng)
        ids = rng.integers(1, 10, size=(16, 5))
        for position in range(5):
            p32 = np.exp(log_softmax(model.logits_for(ids, position)))
            model.set_inference_dtype(np.float64)
            p64 = np.exp(log_softmax(model.logits_for(ids, position)))
            model.set_inference_dtype(np.float32)
            assert np.allclose(p32, p64, atol=1e-5)

    def test_float64_knob_matches_training_trunk(self, rng):
        """inference_dtype=float64 is the masters trunk, bit for bit."""
        model = _make_model()
        ids = rng.integers(1, 10, size=(8, 5))
        reference = model.forward(ids, training=True)
        model.set_inference_dtype(np.float64)
        fused = model.forward(ids)
        model.set_inference_dtype(np.float32)
        for ref, got in zip(reference, fused):
            assert np.array_equal(ref, got)


class TestFusedCacheInvalidation:
    def test_optimizer_step_invalidates_fused_caches(self, rng):
        model = _make_model()
        ids = rng.integers(1, 10, size=(16, 5))
        before = model.log_prob(ids)  # builds every fused cache
        optimizer = Adam(model.parameters(), lr=5e-2)
        model.loss_and_backward(ids)
        optimizer.step()
        after = model.log_prob(ids)
        assert not np.allclose(before, after), (
            "fused caches served stale weights after an optimizer step"
        )
        # A fresh model restored from the stepped masters must agree
        # bit for bit — the cache rebuild is exactly a fresh cast.
        fresh = MADE.from_state(model.state())
        assert np.array_equal(after, fresh.log_prob(ids))

    def test_from_state_invalidates_caches(self, rng):
        donor = _make_model(seed=3)
        other = _make_model(seed=99)
        ids = rng.integers(1, 10, size=(12, 5))
        donor_lp = donor.log_prob(ids)
        restored = MADE.from_state(donor.state())
        restored.log_prob(ids)  # build caches from donor weights
        # Overwrite the restored model's masters in place, as a
        # checkpoint load into an existing model does.
        for param, source in zip(
            restored.parameters(), other.parameters()
        ):
            param.value[...] = source.value
            param.bump_version()
        assert np.array_equal(restored.log_prob(ids), other.log_prob(ids))
        assert not np.array_equal(restored.log_prob(ids), donor_lp)


class TestIncrementalSweep:
    @pytest.mark.parametrize(
        "residual", [False, True], ids=["made", "resmade"]
    )
    def test_sweep_matches_full_forward_every_position(self, residual, rng):
        """Rank-embed_dim first-layer updates track the full forward."""
        model = MADE(
            var_vocabs=[0, 1, 0, 1, 0],
            vocab_sizes=[40, 12],
            embed_dim=8,
            hidden_sizes=(48, 48),
            residual=residual,
            seed=5,
        )
        _fit_a_little(model, rng)
        target = rng.integers(1, 10, size=(16, 5))
        current = np.zeros_like(target)
        sweep = model.begin_sweep(current)
        for position in range(model.num_vars):
            incremental = sweep.logits(position)
            full = model.forward(current)[position]
            assert np.allclose(incremental, full, rtol=1e-3, atol=1e-4), (
                f"sweep diverged from the full forward at {position}"
            )
            probs = np.exp(log_softmax(sweep.logits(position)))
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
            sweep.assign(position, target[:, position])
            current[:, position] = target[:, position]

    def test_logits_for_uses_assigned_prefix_only(self, rng):
        """The sweep respects autoregressive masking: junk at future
        positions cannot leak into an earlier position's logits."""
        model = _make_model()
        clean = np.zeros((6, 5), dtype=np.int64)
        noisy = rng.integers(1, 10, size=(6, 5))
        noisy[:, :2] = 0
        assert np.allclose(
            model.logits_for(clean, 2), model.logits_for(noisy, 2)
        )


class TestStreamedHead:
    """The vocab-streamed head reductions against dense full-matrix
    references computed from the same float32 logits."""

    def _sweep(self, rng, rows=24, fit=True):
        model = _make_model()
        if fit:
            _fit_a_little(model, rng)
        ids = rng.integers(0, 10, size=(rows, model.num_vars))
        return model, model.begin_sweep(ids)

    def _shrink_tiles(self, monkeypatch):
        """Force multi-tile, multi-chunk streaming at test vocabularies:
        a 960-byte workspace holds 15 lse rows, 7 Gumbel rows and 2
        categorical rows of a 40-id vocabulary in 16-column chunks."""
        import repro.nn.masked as masked

        monkeypatch.setattr(masked, "_HEAD_WORKSPACE_BYTES", 960)
        monkeypatch.setattr(masked, "_HEAD_COL_CHUNK", 16)

    def test_lse_pick_matches_dense(self, rng, monkeypatch):
        self._shrink_tiles(monkeypatch)
        model, sweep = self._sweep(rng)
        position = 2
        vocab = model.vocab_sizes[model.var_vocabs[position]]
        rows = np.arange(24, dtype=np.int64)
        values = rng.integers(0, vocab, size=24)
        lse, picked = sweep.head_lse_pick(position, rows, values)
        dense = sweep.logits(position).astype(np.float64)
        ref_lse = np.log(
            np.exp(dense - dense.max(axis=1, keepdims=True)).sum(axis=1)
        ) + dense.max(axis=1)
        assert np.allclose(lse, ref_lse, rtol=1e-5, atol=1e-5)
        ref_picked = dense[rows, values]
        assert np.allclose(picked, ref_picked, rtol=1e-4, atol=1e-5)

    def test_gumbel_argmax_matches_dense(self, rng, monkeypatch):
        self._shrink_tiles(monkeypatch)
        model, sweep = self._sweep(rng)
        position = 2
        vocab = model.vocab_sizes[model.var_vocabs[position]]
        table = rng.gumbel(size=4096 + vocab).astype(np.float32)
        # One competition row per head row, over a strided row subset.
        head_rows = np.arange(0, 24, 2, dtype=np.int64)
        bases = rng.integers(0, 4096, size=head_rows.shape[0])
        choice, rest_peak, first_logit = sweep.head_gumbel_argmax(
            position, head_rows, table, bases
        )
        dense = sweep.logits(position)[head_rows]
        noise = np.stack(
            [table[b: b + vocab] for b in bases]
        )
        noisy = noise + dense
        noisy[:, 0] = -np.inf
        assert np.array_equal(choice, noisy.argmax(axis=1))
        masked_dense = dense.copy()
        masked_dense[:, 0] = -np.inf
        assert np.array_equal(rest_peak, masked_dense.max(axis=1))
        assert np.allclose(first_logit, dense[:, 0], rtol=1e-5, atol=1e-6)

    def test_gumbel_argmax_identity_map(self, rng, monkeypatch):
        """Every row of the block, at a node position."""
        self._shrink_tiles(monkeypatch)
        model, sweep = self._sweep(rng)
        position = 0
        vocab = model.vocab_sizes[model.var_vocabs[position]]
        table = rng.gumbel(size=4096 + vocab).astype(np.float32)
        rows = np.arange(24, dtype=np.int64)
        bases = rng.integers(0, 4096, size=24)
        choice, _, _ = sweep.head_gumbel_argmax(
            position, rows, table, bases
        )
        dense = sweep.logits(position)
        noisy = np.stack([table[b: b + vocab] for b in bases]) + dense
        noisy[:, 0] = -np.inf
        assert np.array_equal(choice, noisy.argmax(axis=1))

    def test_categorical_sample_matches_dense(self, rng):
        model, sweep = self._sweep(rng)
        position = 2
        rows = np.arange(24, dtype=np.int64)
        uniforms = rng.random((24, 8))
        choice, rest_peak, first_logit = sweep.head_categorical_sample(
            position, rows, uniforms
        )
        dense = sweep.logits(position)
        ref = np.empty_like(choice)
        for i, logit_row in enumerate(dense):
            row = logit_row.copy()
            first = row[0]
            row[0] = -np.inf
            peak = row.max()
            assert rest_peak[i] == np.float32(peak)
            assert first_logit[i] == np.float32(first)
            mass = np.exp(row - peak)  # float32, reserved id -> 0
            cdf = np.cumsum(mass, dtype=np.float64)
            ref[i] = np.searchsorted(
                cdf, uniforms[i] * cdf[-1], side="left"
            )
        assert np.array_equal(choice, ref)
        assert (choice >= 1).all()

    def test_categorical_sample_blocking_invariant(
        self, rng, monkeypatch
    ):
        """Draws are a pure per-row function of logits and uniforms —
        the workspace budget (hence the row tile) cannot change them."""
        import repro.nn.masked as masked

        model, sweep = self._sweep(rng)
        uniforms = rng.random((24, 8))
        rows = np.arange(24, dtype=np.int64)
        wide, _, _ = sweep.head_categorical_sample(2, rows, uniforms)
        monkeypatch.setattr(masked, "_HEAD_WORKSPACE_BYTES", 1)
        narrow_sweep = model.begin_sweep(sweep.ids)
        narrow, _, _ = narrow_sweep.head_categorical_sample(
            2, rows, uniforms
        )
        assert np.array_equal(wide, narrow)
        # One row of scratch (float64 CDF + float32 logits) is the floor.
        assert narrow_sweep._workspace.nbytes == 40 * 12

    def test_dead_conditional_operands(self, rng):
        """A head whose real-id mass collapsed relative to the reserved
        id reports rest_peak far below first_logit on both unbound
        samplers — the operands the sweep turns into weight 0."""
        model = _make_model()
        # Reserved id 0 towers over every real id at position 0.
        bias = model.out_bias[0]
        bias.value[:] = -300.0
        bias.value[0] = 300.0
        bias.bump_version()
        sweep = model.begin_sweep(
            np.zeros((12, model.num_vars), dtype=np.int64)
        )
        rows = np.arange(12, dtype=np.int64)
        vocab = model.vocab_sizes[model.var_vocabs[0]]
        table = rng.gumbel(size=4096 + vocab).astype(np.float32)
        bases = rng.integers(0, 4096, size=12)
        g_choice, g_peak, g_first = sweep.head_gumbel_argmax(
            0, rows, table, bases
        )
        c_choice, c_peak, c_first = sweep.head_categorical_sample(
            0, rows, rng.random((12, 4))
        )
        for peak, first in ((g_peak, g_first), (c_peak, c_first)):
            assert ((peak - first) <= np.float32(-104.0)).all()
        assert np.array_equal(g_peak, c_peak)
        assert np.allclose(g_first, c_first, rtol=1e-6, atol=1e-6)
        # Choices stay in the real-id range even on dead rows.
        assert (g_choice >= 1).all() and (c_choice >= 1).all()


class TestCheckpointMasters:
    def test_state_roundtrip_preserves_float64_masters_exactly(
        self, rng, tmp_path
    ):
        from repro.nn import load_made, save_made

        model = _make_model()
        _fit_a_little(model, rng)
        path = tmp_path / "made.npz"
        save_made(path, model)
        restored = load_made(path)
        for original, loaded in zip(
            model.parameters(), restored.parameters()
        ):
            assert loaded.value.dtype == np.float64
            assert np.array_equal(original.value, loaded.value), (
                original.name
            )
        ids = rng.integers(1, 10, size=(10, 5))
        assert np.array_equal(model.log_prob(ids), restored.log_prob(ids))


class TestMemoryAccounting:
    def test_footprint_counts_live_arrays(self, rng):
        model = _make_model()
        params = model.num_parameters()
        layers = model.hidden_layers + [model.out_proj]
        mask_bytes = sum(layer.mask.nbytes for layer in layers)
        assert model.checkpoint_bytes() == params * 4
        # Fresh model: float64 masters + their gradient accumulators +
        # bool masks, no derived caches yet.
        assert model.memory_bytes() == params * 16 + mask_bytes
        ids = rng.integers(1, 10, size=(4, 5))
        # First inference builds every fused float32 cache (casting via
        # the float64 masked-weight buffers, which stay allocated for
        # reuse by the training forward/backward), plus the contiguous
        # transposed copy of each tied-projection table.
        model.log_prob(ids)
        masked_bytes = sum(
            layer.weight.value.nbytes for layer in layers
        )
        table_t_bytes = 4 * sum(t.size for t in model.tables)
        expected = (
            params * 20 + mask_bytes + masked_bytes + table_t_bytes
        )
        assert model.memory_bytes() == expected
        model.forward(ids, training=True)  # reuses the same buffers
        assert model.memory_bytes() == expected


class TestEmbedGather:
    def test_block_gather_matches_per_position(self, rng):
        """The grouped np.take embed equals the naive per-position one."""
        model = _make_model()
        ids = rng.integers(1, 10, size=(9, 5))
        blocks = [
            model.tables[model.var_vocabs[i]].value[ids[:, i]]
            for i in range(model.num_vars)
        ]
        reference = np.concatenate(blocks, axis=1)
        assert np.array_equal(model._embed(ids), reference)
        fused = model._embed_fused(ids)
        assert fused.dtype == np.float32
        assert np.allclose(fused, reference.astype(np.float32))
