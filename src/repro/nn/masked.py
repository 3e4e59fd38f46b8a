"""Masked autoregressive networks: MADE and ResMADE.

LMKG-U (Section VI-B of the paper) is a deep autoregressive model over the
flattened term sequence of a graph pattern: for a pattern with terms
``x = [x1, ..., xn]`` the model outputs, per position i, the conditional
distribution ``P(xi | x<i)``.  The autoregressive property is enforced by
masking weights following MADE (Germain et al., ICML 2015); ResMADE adds
residual connections between equal-degree hidden layers, exactly as the
paper describes.

Two departures from a textbook MADE, both required to keep the model
practical on knowledge graphs with thousands of distinct terms:

- **Shared embeddings**: positions of the same kind (node vs predicate)
  share one embedding table, the "embedding on each of the terms in the
  pattern-bound encoding" of Section VI-B.
- **Tied output projections**: the per-position output logits are produced
  by projecting the masked hidden state to the embedding dimension and
  multiplying with the (transposed) shared embedding table, plus a
  per-position bias.  This keeps the parameter count linear in the vocab
  size rather than ``hidden x vocab`` per position.

Dtype policy
------------

Training is float64 end to end: parameters keep float64 master values,
``forward(ids, training=True)`` / ``loss_and_backward`` compute with the
masked float64 masters (one trunk, :meth:`MADE._trunk_train`, shared by
both), and fits are bit-identical to the seed.  ``loss_and_backward``
writes each position's logits into one ``(batch, vocab)`` float64 buffer
per vocabulary, allocated per call and never kept on the model, and the
in-place :func:`~repro.nn.losses.softmax_cross_entropy` turns that buffer
into ``dlogits``; :class:`~repro.nn.optimizers.Adam` updates its moments
in place.  Both keep every operation's operands and order, so the
weights come out bit for bit as from the out-of-place forms.
Inference (``forward``, ``log_prob``, ``logits_for``,
:class:`MADESweep`) runs on **fused float32 caches**: each masked layer
holds ``(W * M).astype(float32)`` plus a float32 bias, and the embedding
tables and output biases keep float32 shadows.  The caches are keyed by
the per-parameter version counters that :meth:`repro.nn.optimizers.Adam.step`
bumps, so a stale cache is impossible and the hot estimation paths pay
zero per-call masking or casting.  Masks themselves are stored as
``bool`` (8x smaller than the float64 masks of the seed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.initializers import glorot_uniform, normal_embedding
from repro.nn.layers import Layer, Parameter
from repro.nn.losses import log_softmax, softmax_cross_entropy
from repro.nn.optimizers import Adam


class MaskedLinear(Layer):
    """A dense layer whose weight is elementwise-multiplied by a 0/1 mask.

    The mask is stored as ``bool``.  Two derived-weight caches exist:

    - the float64 masked weight, built once per ``forward`` and reused by
      ``backward`` (the seed recomputed ``weight * mask`` in both), and
    - the fused inference weight from :meth:`fused` — the pre-masked
      master cast once to the inference dtype, cached against the
      parameter version counters so optimiser steps invalidate it.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        mask: np.ndarray,
        rng: np.random.Generator,
        name: str = "masked",
    ) -> None:
        if mask.shape != (in_features, out_features):
            raise ValueError(
                f"mask shape {mask.shape} != ({in_features}, {out_features})"
            )
        self.weight = Parameter(
            f"{name}.weight", glorot_uniform(rng, in_features, out_features)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features))
        self.mask = np.ascontiguousarray(mask.astype(bool))
        self._input: Optional[np.ndarray] = None
        self._masked64: Optional[np.ndarray] = None
        self._fused: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._fused_key: Optional[Tuple[int, int, np.dtype]] = None

    def _masked_weight(self) -> np.ndarray:
        """Masked float64 master weight; one multiply per training step."""
        if self._masked64 is None:
            self._masked64 = np.empty_like(self.weight.value)
        np.multiply(self.weight.value, self.mask, out=self._masked64)
        return self._masked64

    def fused(self, dtype=np.float32) -> Tuple[np.ndarray, np.ndarray]:
        """``(weight * mask, bias)`` at the inference dtype, cached.

        Rebuilt only when an optimiser step (or checkpoint restore) bumps
        a parameter version — the inference hot path never masks or
        casts.
        """
        key = (self.weight.version, self.bias.version, np.dtype(dtype))
        if self._fused_key != key:
            self._fused = (
                self._masked_weight().astype(key[2]),
                self.bias.value.astype(key[2]),
            )
            self._fused_key = key
        return self._fused

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = x
        return x @ self._masked_weight() + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None
        self.weight.grad += (self._input.T @ grad) * self.mask
        self.bias.grad += grad.sum(axis=0)
        # The masked weight built by forward() is still current: steps
        # happen between iterations, never between forward and backward.
        assert self._masked64 is not None
        return grad @ self._masked64.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


def hidden_degrees(
    num_vars: int, width: int, rng: np.random.Generator
) -> np.ndarray:
    """Assign autoregressive degrees in [1, num_vars - 1] to hidden units.

    Cyclic assignment (not random) keeps every conditional reachable even
    for narrow layers, matching the deterministic variant used by Naru.
    """
    if num_vars < 2:
        # A single-variable model has no conditioning structure; degree 1
        # hidden units will be fully masked from the (only) output.
        return np.ones(width, dtype=np.int64)
    return (np.arange(width) % (num_vars - 1)) + 1


def _input_mask(in_degrees: np.ndarray, out_degrees: np.ndarray) -> np.ndarray:
    """Mask for input/hidden layers: out unit sees in units with deg <= its."""
    return out_degrees[None, :] >= in_degrees[:, None]


def _output_mask(
    in_degrees: np.ndarray, out_degrees: np.ndarray
) -> np.ndarray:
    """Mask for the output layer: strictly preceding degrees only."""
    return out_degrees[None, :] > in_degrees[:, None]


#: Vocab-column chunk of the streamed head.  The column grid is fixed
#: in vocab space (never derived from the row count), so per-row
#: reductions visit chunks in the same order no matter how a batch is
#: blocked.
_HEAD_COL_CHUNK = 8192

#: Bytes of the one head workspace a :class:`MADESweep` allocates and
#: reuses in every head call.  Each head method sizes its row tile to
#: fit its per-row scratch into this budget (at least one row), so a
#: sweep's head holds at most this much however many rows it serves.
#: Tile rows change no result: every head reduction is a per-row
#: function of the logits.
_HEAD_WORKSPACE_BYTES = 2 << 20


class MADESweep:
    """Incremental inference state for a position-by-position sweep.

    Likelihood-weighted sampling visits positions in model order over a
    fixed particle batch; between consecutive positions only one
    embed-dim column block of the embedded input changes.  The sweep
    caches the first hidden layer's pre-activation and applies a
    rank-``embed_dim`` update per assignment (``h1 += delta_block @
    W1[block_rows]``) instead of re-running the full first matmul — the
    widest of the trunk (``num_vars * embed_dim -> hidden``) — so its
    cost drops to ~1/num_vars per position.  Deeper (narrower) layers
    still re-run per position.

    The vocab-wide head never materialises ``(rows, vocab)`` logits: the
    ``head_*`` methods stream row tiles through scratch carved from one
    workspace of :data:`_HEAD_WORKSPACE_BYTES`, allocated with the sweep
    and reused by every head call of every position.

    Everything here is fused-dtype (float32 by default); obtain one via
    :meth:`MADE.begin_sweep`.
    """

    def __init__(self, model: "MADE", ids: np.ndarray) -> None:
        self.model = model
        self.ids = np.array(ids, dtype=np.int64, copy=True)
        if self.ids.ndim != 2 or self.ids.shape[1] != model.num_vars:
            raise ValueError(
                f"expected (batch, {model.num_vars}) ids, "
                f"got {self.ids.shape}"
            )
        self._embedded = model._embed_fused(self.ids)
        first = model.hidden_layers[0]
        weight, bias = first.fused(model.inference_dtype)
        self._h1_pre = self._embedded @ weight
        self._h1_pre += bias
        self._trunk_h: Optional[np.ndarray] = None
        self._workspace = np.empty(_HEAD_WORKSPACE_BYTES, dtype=np.uint8)

    def _scratch(
        self, n: int, *columns: Tuple[int, type]
    ) -> Tuple[int, List[np.ndarray]]:
        """Row tile for a head call over *n* rows, plus one flat buffer
        of ``tile * cols`` items per ``(cols, dtype)`` in *columns*,
        carved end to end out of the workspace.  The workspace grows
        only when a single row needs more than the budget."""
        sizes = [(cols, np.dtype(dtype)) for cols, dtype in columns]
        row_bytes = sum(cols * dtype.itemsize for cols, dtype in sizes)
        if self._workspace.nbytes < row_bytes:
            self._workspace = np.empty(row_bytes, dtype=np.uint8)
        tile = max(1, min(n, self._workspace.nbytes // row_bytes))
        buffers, offset = [], 0
        for cols, dtype in sizes:
            nbytes = tile * cols * dtype.itemsize
            buffers.append(
                self._workspace[offset: offset + nbytes].view(dtype)
            )
            offset += nbytes
        return tile, buffers

    def assign(self, position: int, values: np.ndarray) -> None:
        """Set *position* to *values* (one id per row) and update h1."""
        model = self.model
        values = np.asarray(values, dtype=np.int64)
        lo = position * model.embed_dim
        hi = lo + model.embed_dim
        table = model._fused_table(model.var_vocabs[position])
        new_block = np.take(table, values, axis=0)
        delta = new_block - self._embedded[:, lo:hi]
        weight, _ = model.hidden_layers[0].fused(model.inference_dtype)
        self._h1_pre += delta @ weight[lo:hi, :]
        self._embedded[:, lo:hi] = new_block
        self.ids[:, position] = values
        self._trunk_h = None

    def _trunk(self) -> np.ndarray:
        """Hidden state after the full trunk, from the cached h1.

        Cached between assignments so the bound and unbound head passes
        of one position share a single deep-layer forward.
        """
        if self._trunk_h is not None:
            return self._trunk_h
        model = self.model
        h = np.maximum(self._h1_pre, 0.0)
        for li in range(1, len(model.hidden_layers)):
            weight, bias = model.hidden_layers[li].fused(
                model.inference_dtype
            )
            pre = h @ weight
            pre += bias
            post = np.maximum(pre, 0.0, out=pre)
            h = post + h if (
                model.residual and post.shape[1] == h.shape[1]
            ) else post
        self._trunk_h = h
        return h

    def _head_operands(
        self, position: int, rows: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ones-augmented out block, biased head table)`` of *position*.

        The out block is the per-row embed-dim projection for the given
        row subset (all rows when *rows* is None), with a trailing ones
        column; multiplied against :meth:`MADE._fused_head_table` one
        GEMM produces biased logits — no per-tile bias pass.
        """
        model = self.model
        h = self._trunk()
        if rows is not None:
            h = h[rows]
        lo = position * model.embed_dim
        hi = lo + model.embed_dim
        weight, bias = model.out_proj.fused(model.inference_dtype)
        block = np.empty(
            (h.shape[0], model.embed_dim + 1), dtype=model.inference_dtype
        )
        np.matmul(h, weight[:, lo:hi], out=block[:, :-1])
        block[:, :-1] += bias[lo:hi]
        block[:, -1] = 1.0
        return block, model._fused_head_table(position)

    def logits(self, position: int) -> np.ndarray:
        """Logits of *position* given the currently assigned ids."""
        block, head_t = self._head_operands(position, None)
        return block @ head_t

    def head_lse_pick(
        self,
        position: int,
        rows: np.ndarray,
        values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Streamed per-row log-normaliser and bound-value logit.

        For the given row subset computes ``lse[r] = log sum_v
        exp(logits[r, v])`` and ``picked[r] = logits[r, values[r]]``
        without materialising the ``(rows, vocab)`` logit matrix: the
        head streams in fixed vocab-column chunks over workspace-sized
        row tiles, keeping a running maximum and a rescaled running sum
        per row.  The column grid lives in vocab space, so each row's
        reduction order — hence its result — is independent of which
        other rows share the call.  Returns float64 ``(lse, picked)``.
        """
        model = self.model
        block, head_t = self._head_operands(position, rows)
        values = np.asarray(values, dtype=np.int64)
        n = block.shape[0]
        vocab = head_t.shape[1]
        # The bound-value logit is one rank-embed_dim dot per row against
        # a contiguous table row — no chunk bookkeeping needed.
        table = model._fused_table(model.var_vocabs[position])
        picked = np.einsum(
            "re,re->r", block[:, :-1], np.take(table, values, axis=0)
        ).astype(np.float64)
        picked += model._fused_out_bias(position)[values]
        run_max = np.full(n, -np.inf, dtype=np.float32)
        run_sum = np.zeros(n, dtype=np.float64)
        tile_rows, (scratch,) = self._scratch(
            n, (min(vocab, _HEAD_COL_CHUNK), model.inference_dtype)
        )
        for r0 in range(0, n, tile_rows):
            r1 = min(r0 + tile_rows, n)
            k = r1 - r0
            rows_block = block[r0:r1]
            for c0 in range(0, vocab, _HEAD_COL_CHUNK):
                c1 = min(c0 + _HEAD_COL_CHUNK, vocab)
                tile = scratch[: k * (c1 - c0)].reshape(k, c1 - c0)
                np.matmul(rows_block, head_t[:, c0:c1], out=tile)
                new_max = np.maximum(run_max[r0:r1], tile.max(axis=1))
                np.subtract(tile, new_max[:, None], out=tile)
                np.exp(tile, out=tile)
                run_sum[r0:r1] *= np.exp(
                    (run_max[r0:r1] - new_max).astype(np.float64)
                )
                # Pairwise float32 within the chunk, float64 across
                # chunks — the cross-chunk accumulator is what the
                # running maximum rescales.
                run_sum[r0:r1] += tile.sum(axis=1)
                run_max[r0:r1] = new_max
        lse = run_max.astype(np.float64) + np.log(run_sum)
        return lse, picked

    def head_gumbel_argmax(
        self,
        position: int,
        rows: np.ndarray,
        noise_table: np.ndarray,
        bases: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Streamed Gumbel-max over the head, reserved id 0 excluded.

        Samples ``argmax_{v >= 1} (logits[r, v] + g[r, v])`` per head
        row *r* without materialising logits or noise: the head streams
        in the same fixed vocab-column chunks as :meth:`head_lse_pick`,
        against a running (best value, best column) pair.  Noise for row
        *r* over columns ``[c0, c1)`` is the window ``noise_table[bases[r]
        + c0 : bases[r] + c1]`` — the caller owns the keying of *bases*.

        Returns ``(choice, rest_peak, first_logit)`` per row: the
        winning column, the maximum logit over ``v >= 1`` and the
        reserved id's logit — the two operands of dead-conditional
        detection.
        """
        model = self.model
        block, head_t = self._head_operands(position, rows)
        bases = np.asarray(bases, dtype=np.int64)
        n = block.shape[0]
        vocab = head_t.shape[1]
        if bases.shape[0] != n:
            raise ValueError(
                f"{n} head rows but {bases.shape[0]} noise bases"
            )
        first_logit = block @ head_t[:, 0]
        rest_peak = np.full(n, -np.inf, dtype=np.float32)
        best_val = np.full(n, -np.inf, dtype=np.float32)
        choice = np.zeros(n, dtype=np.int64)
        width = min(vocab, _HEAD_COL_CHUNK)
        # Noise windows are copied row-by-row into a workspace buffer:
        # a fancy-indexed window gather would allocate (and page-fault)
        # a fresh tile-sized array per chunk.
        tile_rows, (scratch, noise_buf) = self._scratch(
            n, (width, model.inference_dtype), (width, model.inference_dtype)
        )
        for r0 in range(0, n, tile_rows):
            r1 = min(r0 + tile_rows, n)
            k = r1 - r0
            rows_block = block[r0:r1]
            tile_bases = bases[r0:r1].tolist()
            for c0 in range(0, vocab, _HEAD_COL_CHUNK):
                c1 = min(c0 + _HEAD_COL_CHUNK, vocab)
                tile = scratch[: k * (c1 - c0)].reshape(k, c1 - c0)
                np.matmul(rows_block, head_t[:, c0:c1], out=tile)
                if c0 == 0:
                    # The reserved id is excluded from both the
                    # competition and the rest-of-vocab peak.
                    tile[:, 0] = -np.inf
                np.maximum(
                    rest_peak[r0:r1], tile.max(axis=1), out=rest_peak[r0:r1]
                )
                noisy = noise_buf[: k * (c1 - c0)].reshape(k, c1 - c0)
                for i, base in enumerate(tile_bases):
                    noisy[i] = noise_table[base + c0: base + c1]
                noisy += tile
                loc = noisy.argmax(axis=1)
                val = np.take_along_axis(
                    noisy, loc[:, None], axis=1
                ).ravel()
                # Strict '>' keeps the earliest chunk on exact ties,
                # matching a full-matrix argmax.
                upd = val > best_val[r0:r1]
                sel = np.flatnonzero(upd)
                if sel.size:
                    choice[r0 + sel] = loc[sel] + c0
                    best_val[r0:r1][upd] = val[upd]
        return choice, rest_peak, first_logit

    def head_categorical_sample(
        self,
        position: int,
        rows: np.ndarray,
        uniforms: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverse-CDF draws from shared head rows, reserved id excluded.

        For each head row *r* (a prefix shared by a whole particle
        group) draws ``uniforms.shape[1]`` independent samples from
        ``softmax(logits[r, 1:])`` by inverting the row's CDF in vocab
        order: draw *j* picks the smallest ``v >= 1`` with
        ``sum_{w <= v} exp(l_w - m_r) >= u[r, j] * Z_r``.  One GEMM and
        one float64 scan per *head* row replaces a per-*particle*
        vocab-wide Gumbel competition, which is what makes undiverged
        queries cheap.  The CDF is materialised one workspace-sized row
        tile at a time — never the full ``(rows, vocab)`` matrix — and
        is a pure per-row function of the logits and the uniforms, so
        draws are independent of how the batch was blocked.

        Returns ``(choice, rest_peak, first_logit)``: choices shaped
        like *uniforms*, plus the two dead-conditional operands per
        head row.  Dead rows (``Z == 0`` in float64 terms never occurs;
        the caller tests ``rest_peak - first_logit``) still get
        well-defined draws from the renormalised row.
        """
        model = self.model
        block, head_t = self._head_operands(position, rows)
        uniforms = np.asarray(uniforms, dtype=np.float64)
        n = block.shape[0]
        vocab = head_t.shape[1]
        if uniforms.shape[0] != n:
            raise ValueError(
                f"{n} head rows but {uniforms.shape[0]} uniform rows"
            )
        choice = np.empty(uniforms.shape, dtype=np.int64)
        rest_peak = np.empty(n, dtype=np.float32)
        first_logit = np.empty(n, dtype=np.float32)
        # The float64 CDF leads the workspace, keeping it 8-byte aligned.
        tile_rows, (cdf, scratch) = self._scratch(
            n, (vocab, np.float64), (vocab, model.inference_dtype)
        )
        for r0 in range(0, n, tile_rows):
            r1 = min(r0 + tile_rows, n)
            k = r1 - r0
            tile = scratch[: k * vocab].reshape(k, vocab)
            np.matmul(block[r0:r1], head_t, out=tile)
            first_logit[r0:r1] = tile[:, 0]
            tile[:, 0] = -np.inf
            peak = tile.max(axis=1)
            rest_peak[r0:r1] = peak
            row_cdf = cdf[: k * vocab].reshape(k, vocab)
            np.subtract(tile, peak[:, None], out=tile)
            np.exp(tile, out=tile)
            np.cumsum(tile, axis=1, dtype=np.float64, out=row_cdf)
            targets = uniforms[r0:r1] * row_cdf[:, -1:]
            for i in range(k):
                choice[r0 + i] = np.searchsorted(
                    row_cdf[i], targets[i], side="left"
                )
        return choice, rest_peak, first_logit


class MADE:
    """Masked autoregressive density estimator over categorical sequences.

    Args:
        var_vocabs: for each position i, the index into *vocab_sizes* of
            the vocabulary it draws values from (e.g. node vs predicate).
        vocab_sizes: size of each shared vocabulary, ids in [0, size).
        embed_dim: shared embedding dimension (the paper uses 32).
        hidden_sizes: widths of the masked hidden layers.
        residual: enable ResMADE residual connections between consecutive
            equal-width hidden layers.
    """

    def __init__(
        self,
        var_vocabs: Sequence[int],
        vocab_sizes: Sequence[int],
        embed_dim: int = 32,
        hidden_sizes: Sequence[int] = (256, 256),
        residual: bool = True,
        seed: int = 0,
    ) -> None:
        if not var_vocabs:
            raise ValueError("need at least one variable")
        for v in var_vocabs:
            if not 0 <= v < len(vocab_sizes):
                raise ValueError(f"vocab index {v} out of range")
        self.var_vocabs = list(var_vocabs)
        self.vocab_sizes = list(vocab_sizes)
        self.embed_dim = embed_dim
        self.hidden_sizes = list(hidden_sizes)
        self.residual = residual
        self.num_vars = len(var_vocabs)
        rng = np.random.default_rng(seed)
        self._rng = rng

        self.tables = [
            Parameter(f"table{t}", normal_embedding(rng, size, embed_dim))
            for t, size in enumerate(self.vocab_sizes)
        ]
        #: positions grouped by their vocabulary, for block-gathered embeds
        self._vocab_positions: List[Tuple[int, np.ndarray]] = []
        by_vocab: Dict[int, List[int]] = {}
        for i, t in enumerate(self.var_vocabs):
            by_vocab.setdefault(t, []).append(i)
        for t, positions in by_vocab.items():
            self._vocab_positions.append(
                (t, np.asarray(positions, dtype=np.int64))
            )

        # Degrees: position i (0-based) has degree i + 1; every one of its
        # embed_dim input units carries that degree.
        var_degrees = np.arange(1, self.num_vars + 1)
        in_degrees = np.repeat(var_degrees, embed_dim)

        self.hidden_layers: List[MaskedLinear] = []
        self._hidden_degrees: List[np.ndarray] = []
        prev_degrees = in_degrees
        prev_width = self.num_vars * embed_dim
        for li, width in enumerate(self.hidden_sizes):
            degrees = hidden_degrees(self.num_vars, width, rng)
            mask = _input_mask(prev_degrees, degrees)
            self.hidden_layers.append(
                MaskedLinear(prev_width, width, mask, rng, name=f"h{li}")
            )
            self._hidden_degrees.append(degrees)
            prev_degrees = degrees
            prev_width = width

        # Output projection: hidden -> per-position embed_dim block, the
        # block for position i connected only to strictly smaller degrees.
        out_degrees = np.repeat(var_degrees, embed_dim)
        out_mask = _output_mask(prev_degrees, out_degrees)
        self.out_proj = MaskedLinear(
            prev_width, self.num_vars * embed_dim, out_mask, rng, name="out"
        )
        self.out_bias = [
            Parameter(
                f"out_bias{i}",
                np.zeros(self.vocab_sizes[self.var_vocabs[i]]),
            )
            for i in range(self.num_vars)
        ]
        self._cache: Dict[str, object] = {}

        #: dtype of the fused inference caches; float64 is a debugging /
        #: parity knob (fused but uncast), float32 the serving default.
        self.inference_dtype: np.dtype = np.dtype(np.float32)
        self._table_shadows: Dict[int, np.ndarray] = {}
        self._table_shadow_keys: Dict[int, Tuple[int, np.dtype]] = {}
        self._table_t_shadows: Dict[int, np.ndarray] = {}
        self._table_t_shadow_keys: Dict[int, Tuple[int, np.dtype]] = {}
        self._out_bias_shadows: Dict[int, np.ndarray] = {}
        self._out_bias_shadow_keys: Dict[int, Tuple[int, np.dtype]] = {}
        self._head_shadows: Dict[int, np.ndarray] = {}
        self._head_shadow_keys: Dict[
            int, Tuple[int, int, np.dtype]
        ] = {}

    # ------------------------------------------------------------------
    # Parameters / size
    # ------------------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = list(self.tables)
        for layer in self.hidden_layers:
            params.extend(layer.parameters())
        params.extend(self.out_proj.parameters())
        params.extend(self.out_bias)
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def memory_bytes(self) -> int:
        """True in-process footprint, counted from the live arrays.

        Float64 masters and their gradient accumulators, the bool layer
        masks, and whichever derived caches currently exist: the
        per-layer masked float64 training weights (allocated on first
        training forward) and the fused inference caches (allocated on
        first inference, at the current inference dtype).  The
        paper-facing checkpoint size is :meth:`checkpoint_bytes`.
        """
        total = sum(
            p.value.nbytes + p.grad.nbytes for p in self.parameters()
        )
        layers = self.hidden_layers + [self.out_proj]
        total += sum(layer.mask.nbytes for layer in layers)
        for layer in layers:
            if layer._masked64 is not None:
                total += layer._masked64.nbytes
            if layer._fused is not None:
                total += sum(a.nbytes for a in layer._fused)
        total += sum(a.nbytes for a in self._table_shadows.values())
        total += sum(a.nbytes for a in self._table_t_shadows.values())
        total += sum(a.nbytes for a in self._out_bias_shadows.values())
        total += sum(a.nbytes for a in self._head_shadows.values())
        return total

    def checkpoint_bytes(self) -> int:
        """Model size in bytes at float32 checkpoint precision (Table II)."""
        return self.num_parameters() * 4

    # ------------------------------------------------------------------
    # Fused inference caches
    # ------------------------------------------------------------------

    def set_inference_dtype(self, dtype) -> None:
        """Switch the fused-cache dtype (float32 default, float64 parity)."""
        self.inference_dtype = np.dtype(dtype)

    def _fused_table(self, vocab: int) -> np.ndarray:
        param = self.tables[vocab]
        key = (param.version, self.inference_dtype)
        if self._table_shadow_keys.get(vocab) != key:
            self._table_shadows[vocab] = param.value.astype(key[1])
            self._table_shadow_keys[vocab] = key
        return self._table_shadows[vocab]

    def _fused_table_t(self, vocab: int) -> np.ndarray:
        """Contiguous ``(embed, vocab)`` transpose of the fused table.

        The tied-projection head multiplies every out block with the
        transposed embedding table; a contiguous transposed copy keeps
        that GEMM on cache-friendly operands (~1.3x at serving widths)
        instead of a strided ``table.T`` view.
        """
        param = self.tables[vocab]
        key = (param.version, self.inference_dtype)
        if self._table_t_shadow_keys.get(vocab) != key:
            self._table_t_shadows[vocab] = np.ascontiguousarray(
                self._fused_table(vocab).T
            )
            self._table_t_shadow_keys[vocab] = key
        return self._table_t_shadows[vocab]

    def _fused_out_bias(self, position: int) -> np.ndarray:
        param = self.out_bias[position]
        key = (param.version, self.inference_dtype)
        if self._out_bias_shadow_keys.get(position) != key:
            self._out_bias_shadows[position] = param.value.astype(key[1])
            self._out_bias_shadow_keys[position] = key
        return self._out_bias_shadows[position]

    def _fused_head_table(self, position: int) -> np.ndarray:
        """``(embed + 1, vocab)`` head operand with the bias folded in.

        The transposed embedding table with the position's output bias
        appended as a final row: multiplied against a ones-augmented
        out block, one GEMM yields biased logits, replacing a separate
        vocab-wide bias-add pass over every streamed head tile.
        """
        table_p = self.tables[self.var_vocabs[position]]
        bias_p = self.out_bias[position]
        key = (table_p.version, bias_p.version, self.inference_dtype)
        if self._head_shadow_keys.get(position) != key:
            self._head_shadows[position] = np.concatenate(
                [
                    self._fused_table_t(self.var_vocabs[position]),
                    self._fused_out_bias(position)[None, :],
                ],
                axis=0,
            )
            self._head_shadow_keys[position] = key
        return self._head_shadows[position]

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def _embed(self, ids: np.ndarray) -> np.ndarray:
        """Float64 training embed: block-gather into one buffer."""
        batch = ids.shape[0]
        out = np.empty(
            (batch, self.num_vars, self.embed_dim), dtype=np.float64
        )
        for vocab, positions in self._vocab_positions:
            out[:, positions, :] = np.take(
                self.tables[vocab].value, ids[:, positions], axis=0
            )
        return out.reshape(batch, self.num_vars * self.embed_dim)

    def _embed_fused(self, ids: np.ndarray) -> np.ndarray:
        """Inference embed from the fused float32 table shadows."""
        batch = ids.shape[0]
        out = np.empty(
            (batch, self.num_vars, self.embed_dim),
            dtype=self.inference_dtype,
        )
        for vocab, positions in self._vocab_positions:
            out[:, positions, :] = np.take(
                self._fused_table(vocab), ids[:, positions], axis=0
            )
        return out.reshape(batch, self.num_vars * self.embed_dim)

    def _validated_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != self.num_vars:
            raise ValueError(
                f"expected (batch, {self.num_vars}) ids, got {ids.shape}"
            )
        return ids

    def forward(
        self, ids: np.ndarray, training: bool = False
    ) -> List[np.ndarray]:
        """Per-position logits ``[(batch, vocab_i)] * num_vars``.

        Position i's logits depend only on ids at positions < i, so callers
        may place arbitrary valid ids at positions >= i.  With
        ``training=True`` the trunk runs on the float64 masters (the one
        :meth:`loss_and_backward` runs); otherwise it runs on the fused
        float32 inference weights.
        """
        ids = self._validated_ids(ids)
        if not training:
            return self._forward_fused(ids)
        out = self._trunk_train(ids)
        logits: List[np.ndarray] = []
        for i in range(self.num_vars):
            block = out[:, i * self.embed_dim: (i + 1) * self.embed_dim]
            table = self.tables[self.var_vocabs[i]].value
            logits.append(block @ table.T + self.out_bias[i].value)
        return logits

    def _trunk_train(self, ids: np.ndarray) -> np.ndarray:
        """Float64 master trunk up to the out blocks ``(batch, n * embed)``.

        Caches the activations that :meth:`_backward_hidden` reads.
        """
        h = self._embed(ids)
        activations: List[np.ndarray] = []
        residual_in: List[Optional[np.ndarray]] = []
        for li, layer in enumerate(self.hidden_layers):
            pre = layer.forward(h, training=True)
            post = np.maximum(pre, 0.0)
            use_res = (
                self.residual and li > 0 and post.shape[1] == h.shape[1]
            )
            residual_in.append(h if use_res else None)
            h = post + h if use_res else post
            activations.append(pre)
        self._cache = {
            "pre_activations": activations,
            "residual_in": residual_in,
        }
        return self.out_proj.forward(h, training=True)

    def _forward_fused(self, ids: np.ndarray) -> List[np.ndarray]:
        """Full inference forward on the fused caches (no grad state)."""
        h = self._embed_fused(ids)
        for li, layer in enumerate(self.hidden_layers):
            weight, bias = layer.fused(self.inference_dtype)
            pre = h @ weight
            pre += bias
            post = np.maximum(pre, 0.0, out=pre)
            use_res = (
                self.residual and li > 0 and post.shape[1] == h.shape[1]
            )
            h = post + h if use_res else post
        weight, bias = self.out_proj.fused(self.inference_dtype)
        out = h @ weight
        out += bias
        logits: List[np.ndarray] = []
        for i in range(self.num_vars):
            block = out[:, i * self.embed_dim: (i + 1) * self.embed_dim]
            head = block @ self._fused_table_t(self.var_vocabs[i])
            head += self._fused_out_bias(i)
            logits.append(head)
        return logits

    def loss_and_backward(self, ids: np.ndarray) -> float:
        """Mean negative log-likelihood over the batch; accumulates grads.

        Each position's logits are written into one ``(batch, vocab)``
        buffer per vocabulary, turned into ``dlogits`` in place by
        :func:`softmax_cross_entropy` and consumed before the next
        position of that vocabulary reuses it.  The buffers live for this
        call only.
        """
        ids = self._validated_ids(ids)
        out = self._trunk_train(ids)
        batch = ids.shape[0]
        total_loss = 0.0
        grad_out = np.zeros_like(out)
        buffers = {
            vocab: np.empty((batch, self.vocab_sizes[vocab]))
            for vocab, _ in self._vocab_positions
        }
        for i in range(self.num_vars):
            vocab = self.var_vocabs[i]
            table_param = self.tables[vocab]
            cols = slice(i * self.embed_dim, (i + 1) * self.embed_dim)
            block = out[:, cols]
            dlogits = np.matmul(
                block, table_param.value.T, out=buffers[vocab]
            )
            dlogits += self.out_bias[i].value
            loss_i, dlogits = softmax_cross_entropy(dlogits, ids[:, i])
            total_loss += loss_i
            self.out_bias[i].grad += dlogits.sum(axis=0)
            grad_out[:, cols] = dlogits @ table_param.value
            table_param.grad += dlogits.T @ block
        grad_h = self.out_proj.backward(grad_out)
        grad_h = self._backward_hidden(grad_h)
        self._backward_embedding(grad_h, ids, batch)
        return total_loss

    def _backward_hidden(self, grad_h: np.ndarray) -> np.ndarray:
        activations = self._cache["pre_activations"]
        residual_in = self._cache["residual_in"]
        for li in reversed(range(len(self.hidden_layers))):
            pre = activations[li]  # type: ignore[index]
            grad_post = grad_h
            grad_pre = grad_post * (pre > 0)
            grad_input = self.hidden_layers[li].backward(grad_pre)
            if residual_in[li] is not None:  # type: ignore[index]
                grad_input = grad_input + grad_post
            grad_h = grad_input
        return grad_h

    def _backward_embedding(
        self, grad_h: np.ndarray, ids: np.ndarray, batch: int
    ) -> None:
        grad3 = grad_h.reshape(batch, self.num_vars, self.embed_dim)
        for i in range(self.num_vars):
            table_param = self.tables[self.var_vocabs[i]]
            np.add.at(table_param.grad, ids[:, i], grad3[:, i, :])

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def log_prob(self, ids: np.ndarray) -> np.ndarray:
        """Log density of each row: sum of per-position conditionals.

        Computed on the fused float32 trunk; the per-row sum accumulates
        in float64.
        """
        ids = self._validated_ids(ids)
        logits = self._forward_fused(ids)
        total = np.zeros(ids.shape[0], dtype=np.float64)
        rows = np.arange(ids.shape[0])
        for i in range(self.num_vars):
            lp = log_softmax(logits[i])
            total += lp[rows, ids[:, i]]
        return total

    def begin_sweep(self, ids: np.ndarray) -> MADESweep:
        """Incremental sweep state over *ids* (copied; fused dtype).

        The hot path of likelihood-weighted sampling: call the streamed
        ``head_*`` methods (or the dense reference ``logits(position)``)
        in position order and ``assign(position, values)`` after each
        draw — only the changed embed-dim block re-enters the first
        matmul.
        """
        return MADESweep(self, self._validated_ids(ids))

    def logits_for(self, ids: np.ndarray, position: int) -> np.ndarray:
        """Logits of a single position without building every head.

        Runs the fused trunk once and projects only *position*'s block —
        equivalent to ``forward(ids)[position]`` up to fused-dtype
        rounding.
        """
        return self.begin_sweep(ids).logits(position)

    def fit(
        self,
        data: np.ndarray,
        epochs: int = 5,
        batch_size: int = 256,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> List[float]:
        """Train by maximum likelihood; returns per-epoch mean NLL."""
        data = np.asarray(data, dtype=np.int64)
        optimizer = Adam(self.parameters(), lr=lr, clip_norm=5.0)
        rng = np.random.default_rng(seed)
        history: List[float] = []
        n = data.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                batch = data[order[start: start + batch_size]]
                loss = self.loss_and_backward(batch)
                optimizer.step()
                epoch_loss += loss
                batches += 1
            mean_loss = epoch_loss / max(batches, 1)
            history.append(mean_loss)
        return history

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        arrays = {p.name: p.value for p in self.parameters()}
        arrays["_meta_var_vocabs"] = np.array(self.var_vocabs)
        arrays["_meta_vocab_sizes"] = np.array(self.vocab_sizes)
        arrays["_meta_config"] = np.array(
            [self.embed_dim, int(self.residual)] + self.hidden_sizes
        )
        return arrays

    @classmethod
    def from_state(cls, arrays: Dict[str, np.ndarray]) -> "MADE":
        config = arrays["_meta_config"]
        model = cls(
            var_vocabs=arrays["_meta_var_vocabs"].tolist(),
            vocab_sizes=arrays["_meta_vocab_sizes"].tolist(),
            embed_dim=int(config[0]),
            hidden_sizes=[int(v) for v in config[2:]],
            residual=bool(config[1]),
        )
        for param in model.parameters():
            param.value[...] = arrays[param.name]
            param.bump_version()
        return model
