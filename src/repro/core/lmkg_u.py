"""LMKG-U: the unsupervised autoregressive estimator (paper §VI-B).

A ResMADE learns the joint distribution of the flattened term sequence
``[n1, p1, n2, p2, ..., pk, nk+1]`` of bound pattern instances of one
shape.  A query's cardinality is::

    card(qp) = N_shape * P(bound positions take the query's values)

where ``N_shape`` is the exact number of shape instances in the graph
(ordered star tuples / directed walks — see
:mod:`repro.sampling.random_walk`), and the probability marginalises the
unbound positions.  Marginalisation uses the paper's likelihood-weighted
forward sampling: positions are visited in model order; at a bound
position each particle's weight is multiplied by the conditional
probability of the bound value, at an unbound position a value is sampled
from the conditional.  The mean particle weight is an unbiased estimate
of ``P``.

One LMKG-U instance covers one (topology, size) — the query size and type
grouping the paper uses for its experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import Estimator, finalize_estimates
from repro.nn.masked import MADE
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import PatternTerm, Variable, is_bound
from repro.sampling.random_walk import sample_instances

#: vocabulary indices inside the MADE
_NODE_VOCAB = 0
_PRED_VOCAB = 1

#: Version of the batched sweep's Gumbel noise stream.  v1 drew
#: ``standard_exponential`` matrices from one fresh Philox generator per
#: (query, position) — thousands of generator setups per batch plus a
#: log/negate pass over every (particle, vocab) element.  v2 (current)
#: slices per-(query, position, particle) windows out of one seed-keyed
#: Gumbel table, window bases derived by a splitmix64 mix of the same
#: substream key, so a block's noise costs one contiguous gather.  A
#: window is consumed one of two ways, decided by the query's (purely
#: mask-dependent) divergence state at that position: a diverged
#: query's particle reads the whole window as vocab-wide Gumbel noise
#: for the streamed argmax competition, while an undiverged particle
#: maps the window's first entry through the Gumbel CDF into the
#: U(0,1] draw of the shared-prefix inverse-CDF sampler
#: (:meth:`GumbelStream.uniforms`).  The substream keying (global
#: query index x num_positions + position) is unchanged from v1,
#: keeping estimates invariant to block width; the draws themselves
#: differ from v1 — any further change to them must bump this
#: constant.
GUMBEL_STREAM_VERSION = 2

#: entries in the shared Gumbel table; windows may overlap between
#: particles (each particle's draws stay marginally standard Gumbel, so
#: the particle-mean estimate remains unbiased)
_GUMBEL_TABLE_SIZE = 1 << 21

#: float32 ``exp`` underflow margin: once every real value's logit sits
#: this far below the reserved id's, each renormalised conditional
#: rounds to 0.0 in the fused float32 sweep — the "dead conditional"
#: the seed's CDF sampler detected as an all-zero probability row.
_DEAD_LOG_MARGIN = np.float32(-104.0)


def _splitmix64(keys: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (uint64 in, uint64 out)."""
    x = keys.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class GumbelStream:
    """Shared Gumbel noise for the batched particle sweep (stream v2).

    One seed-keyed table of standard-Gumbel variates; every
    (query, position, particle) triple reads the window that starts at
    its splitmix64-derived base.  A row's draws depend only on its
    global query index, position, and particle — never on how the batch
    is blocked — which is exactly the chunk-width invariance contract
    the per-(query, position) Philox substreams of stream v1 gave.
    """

    def __init__(
        self, seed: int, num_positions: int, max_vocab: int
    ) -> None:
        gen = np.random.Generator(
            np.random.Philox(key=[seed + 9, GUMBEL_STREAM_VERSION])
        )
        table = gen.standard_exponential(
            _GUMBEL_TABLE_SIZE + max_vocab, dtype=np.float32
        )
        # Exp(1) can round to 0 in float32; clamp to the smallest
        # positive subnormal so the log stays finite.
        np.maximum(table, np.float32(1e-45), out=table)
        np.log(table, out=table)
        np.negative(table, out=table)
        self.table = table
        self.num_positions = num_positions
        self._salt = _splitmix64(np.array([seed + 9], dtype=np.uint64))[0]

    def bases(
        self,
        query_indices: np.ndarray,
        position: int,
        particles: int,
    ) -> np.ndarray:
        """Window base per (query, particle), query-major order."""
        sub = (
            np.asarray(query_indices, dtype=np.uint64)[:, None]
            * np.uint64(self.num_positions)
            + np.uint64(position)
        )
        keys = sub * np.uint64(particles) + np.arange(
            particles, dtype=np.uint64
        )[None, :]
        mixed = _splitmix64(keys ^ self._salt)
        return (
            (mixed % np.uint64(_GUMBEL_TABLE_SIZE))
            .astype(np.int64)
            .ravel()
        )

    def uniforms(
        self,
        query_indices: np.ndarray,
        position: int,
        particles: int,
    ) -> np.ndarray:
        """U(0,1] draw per (query, particle), query-major order.

        The first entry ``g`` of the particle's keyed window mapped
        through its own CDF, ``u = exp(-exp(-g))`` — exact standard
        uniforms from the same stream state the Gumbel windows use.
        """
        g = self.table[self.bases(query_indices, position, particles)]
        return np.exp(-np.exp(-g.astype(np.float64)))


def likelihood_weighted_probability(
    model: MADE,
    constraints: Sequence[Optional[int]],
    particles: int,
    rng: np.random.Generator,
) -> float:
    """Mean particle weight of one constraint sequence (paper Alg. 1).

    The seed's inverse-CDF sampler over an incremental fused-float32
    sweep: positions are visited in model order; a bound position
    multiplies each particle's weight by the conditional of its value,
    an unbound one samples from the conditional with the reserved
    unbound id 0 excluded (a particle whose conditional collapsed onto
    it carries weight 0).  Shared by :class:`LMKGU` and
    :class:`~repro.core.lmkg_u_universal.UniversalLMKGU`.
    """
    num_positions = len(constraints)
    sweep = model.begin_sweep(
        np.zeros((particles, num_positions), dtype=np.int64)
    )
    weights = np.ones(particles)
    last = num_positions - 1
    for position, value in enumerate(constraints):
        probs = sweep.conditionals(position)
        if value is not None:
            weights *= probs[:, value].astype(np.float64)
            column = np.full(particles, value, dtype=np.int64)
        else:
            probs = probs.copy()
            probs[:, 0] = 0.0
            totals = probs.sum(axis=1, keepdims=True)
            dead = totals.ravel() <= 0
            if dead.any():
                weights[dead] = 0.0
                totals[dead] = 1.0
                probs[dead, 1] = 1.0
            cdf = np.cumsum(probs / totals, axis=1)
            # Float32 summation can leave cdf[-1] a hair under 1,
            # which would send a tail draw to the reserved id 0.
            cdf[:, -1] = 1.0
            draws = rng.random((particles, 1))
            column = (cdf > draws).argmax(axis=1)
        if position != last:
            sweep.assign(position, column)
    return float(weights.mean())


def sweep_probability_block(
    model: MADE,
    constraints: np.ndarray,
    particles: int,
    noise: GumbelStream,
    offset: int,
) -> np.ndarray:
    """Mean particle weight per query for one block of constraints.

    One incremental sweep serves the whole block: per position the
    trunk runs once over the full ``(queries x particles)`` row block
    while the vocab-sized head streams in cache-sized column chunks
    (:meth:`MADESweep.head_lse_pick` / :meth:`head_gumbel_argmax` /
    :meth:`head_categorical_sample`), so the ``(rows, vocab)`` logit
    matrix is never materialised.

    Until a query reaches its first unbound position all its particles
    share one identical prefix, so the head runs on a single
    representative row per such query — conditionals broadcast across
    its particles, and unbound draws come from the shared-prefix
    inverse-CDF sampler instead of a per-particle Gumbel competition.
    The full-width head only ever pays for rows that have actually
    diverged.  *constraints* holds the bound value per
    (query, position), ``-1`` where unbound.  *offset* is the block's
    first query index within the batch; it keys the per-(query,
    position) noise substreams, so results are invariant to how the
    batch is blocked.  Shared by :class:`LMKGU` and
    :class:`~repro.core.lmkg_u_universal.UniversalLMKGU`.
    """
    num_queries, num_positions = constraints.shape
    rows = num_queries * particles
    sweep = model.begin_sweep(
        np.zeros((rows, num_positions), dtype=np.int64)
    )
    weights = np.ones((num_queries, particles))
    diverged = np.zeros(num_queries, dtype=bool)
    arange_p = np.arange(particles, dtype=np.int64)
    column = np.empty((num_queries, particles), dtype=np.int64)
    last = num_positions - 1
    for position in range(num_positions):
        values = constraints[:, position]
        bound = values >= 0
        if bound.any():
            # Bound: multiply in the conditional of the bound value.
            q_rep = np.flatnonzero(bound & ~diverged)
            q_all = np.flatnonzero(bound & diverged)
            head_rows = np.concatenate([
                q_rep * particles,
                (q_all[:, None] * particles + arange_p).ravel(),
            ])
            head_vals = np.concatenate([
                values[q_rep],
                np.repeat(values[q_all], particles),
            ])
            lse, picked = sweep.head_lse_pick(
                position, head_rows, head_vals
            )
            logw = picked - lse
            n_rep = q_rep.shape[0]
            if n_rep:
                weights[q_rep] *= np.exp(logw[:n_rep])[:, None]
            if q_all.shape[0]:
                weights[q_all] *= np.exp(
                    logw[n_rep:].reshape(q_all.shape[0], particles)
                )
            column[bound] = values[bound, None]
        unbound = ~bound
        if unbound.any():
            # Unbound: sample from the conditional with the reserved id
            # excluded.  Undiverged queries share one prefix across all
            # particles, so their draws come from the shared-prefix
            # inverse-CDF sampler (one head row per query); diverged
            # queries run the per-particle streamed Gumbel competition.
            q_rep = np.flatnonzero(unbound & ~diverged)
            q_all = np.flatnonzero(unbound & diverged)
            n_rep = q_rep.shape[0]
            n_all = q_all.shape[0]
            if n_rep:
                u = noise.uniforms(
                    q_rep + offset, position, particles
                ).reshape(n_rep, particles)
                choice, rest_peak, first_logit = (
                    sweep.head_categorical_sample(
                        position, q_rep * particles, u
                    )
                )
                column[q_rep] = choice
                # Dead conditional: all remaining float32 mass sits on
                # the reserved unbound id 0 (never seen in training) —
                # the sampled particle carries weight 0, as the seed's
                # CDF sampler did.
                dead = (rest_peak - first_logit) <= _DEAD_LOG_MARGIN
                dead_q = q_rep[dead]
                if dead_q.size:
                    column[dead_q] = 1
                    weights[dead_q] = 0.0
            if n_all:
                head_rows = (
                    q_all[:, None] * particles + arange_p
                ).ravel()
                bases = noise.bases(q_all + offset, position, particles)
                choice, rest_peak, first_logit = (
                    sweep.head_gumbel_argmax(
                        position, head_rows, noise.table, bases
                    )
                )
                column[q_all] = choice.reshape(n_all, particles)
                dead_all = (
                    (rest_peak - first_logit) <= _DEAD_LOG_MARGIN
                ).reshape(n_all, particles)
                if dead_all.any():
                    sub = column[q_all]
                    sub[dead_all] = 1
                    column[q_all] = sub
                    sub = weights[q_all]
                    sub[dead_all] = 0.0
                    weights[q_all] = sub
            diverged |= unbound
        if position != last:
            sweep.assign(position, column.reshape(rows))
    return weights.mean(axis=1)


@dataclass(frozen=True)
class LMKGUConfig:
    """Hyperparameters of one autoregressive model.

    32-dimensional term embeddings, ResMADE hidden stack, 5 training
    epochs — the paper's §VIII-A choices.  ``training_samples`` bounds the
    number of bound instances drawn; ``particles`` is the number of
    likelihood-weighting samples per estimate.
    """

    embed_dim: int = 32
    hidden_sizes: Tuple[int, ...] = (256, 256)
    residual: bool = True
    epochs: int = 5
    batch_size: int = 256
    learning_rate: float = 1e-3
    training_samples: int = 20_000
    particles: int = 256
    sample_method: str = "exact"  # "exact" | "rw"
    seed: int = 0
    #: row budget (``queries x particles``) of one sweep block in the
    #: batched estimator; None auto-tunes on the first estimate by
    #: timing a few candidate widths.  The vocab-sized head streams in
    #: fixed column chunks regardless, so the budget is independent of
    #: vocabulary size, and estimates are invariant to the choice
    #: (per-query noise substreams) — the knob is purely a throughput
    #: lever.
    chunk_budget: Optional[int] = None


#: candidate row budgets tried by the first-estimate calibration
_CHUNK_BUDGETS = (16_384, 65_536, 262_144)


class LMKGU(Estimator):
    """Autoregressive estimator for one query topology and size."""

    name = "lmkg-u"

    def __init__(
        self,
        store: TripleStore,
        topology: str,
        size: int,
        config: Optional[LMKGUConfig] = None,
    ) -> None:
        if topology not in ("star", "chain"):
            raise ValueError(f"unsupported topology {topology!r}")
        self.store = store
        self.topology = topology
        self.size = size
        self.config = config if config is not None else LMKGUConfig()
        self.num_positions = 2 * size + 1
        # Position kinds alternate node/predicate/node/...
        self._var_vocabs = [
            _NODE_VOCAB if i % 2 == 0 else _PRED_VOCAB
            for i in range(self.num_positions)
        ]
        self._vocab_sizes = [
            store.num_nodes + 1,
            store.num_predicates + 1,
        ]
        self.model: Optional[MADE] = None
        self.universe: Optional[int] = None
        self.history: List[float] = []
        #: block width picked by estimate-time calibration when
        #: ``config.chunk_budget`` is None (queries per sweep block),
        #: plus the widest candidate the calibration could measure —
        #: a larger later batch re-calibrates rather than staying
        #: pinned to a narrow first-batch winner.
        self._tuned_chunk: Optional[int] = None
        self._tuned_cover: int = 0
        self._noise: Optional[GumbelStream] = None

    def build_model(self) -> MADE:
        """Instantiate the (untrained) ResMADE for this shape.

        Exposed separately from :meth:`fit` so size/memory accounting
        (Table II) does not require a training run.
        """
        self.model = MADE(
            var_vocabs=self._var_vocabs,
            vocab_sizes=self._vocab_sizes,
            embed_dim=self.config.embed_dim,
            hidden_sizes=self.config.hidden_sizes,
            residual=self.config.residual,
            seed=self.config.seed,
        )
        return self.model

    def fit(self, instances=None) -> List[float]:
        """Sample bound instances and train the ResMADE on them.

        Args:
            instances: pre-sampled bound instances (e.g. from a
                :mod:`repro.sampling.strategies` strategy); when None
                the configured ``sample_method`` draws them.
        """
        if instances is None:
            instances, universe = sample_instances(
                self.store,
                self.topology,
                self.size,
                self.config.training_samples,
                seed=self.config.seed,
                method=self.config.sample_method,
            )
        else:
            _, universe = sample_instances(
                self.store, self.topology, self.size, 0,
            )
        self.universe = universe
        data = np.array(instances, dtype=np.int64)
        self.build_model()
        self.history = self.model.fit(
            data,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            lr=self.config.learning_rate,
            seed=self.config.seed,
        )
        return self.history

    def finetune(
        self, epochs: int = 1, instances=None
    ) -> List[float]:
        """Continue training from the current weights on fresh samples.

        The incremental-maintenance path (:mod:`repro.maintain`): bound
        instances are re-sampled from the (mutated) live store — same
        seed and budget as :meth:`fit`, so the delta triples surface in
        the sample in proportion to their share of the graph — and the
        ResMADE trains a few more epochs from its float64 masters
        (:meth:`MADE.fit` continues from the current weights with a
        fresh optimizer).  The shape universe count is recomputed from
        the live store, which is what moves the estimate's ``N_shape``
        factor even before the conditionals adjust.
        """
        if self.model is None or self.universe is None:
            raise RuntimeError("finetune() before fit() or load()")
        if instances is None:
            instances, universe = sample_instances(
                self.store,
                self.topology,
                self.size,
                self.config.training_samples,
                seed=self.config.seed,
                method=self.config.sample_method,
            )
        else:
            _, universe = sample_instances(
                self.store, self.topology, self.size, 0,
            )
        self.universe = universe
        data = np.array(instances, dtype=np.int64)
        history = self.model.fit(
            data,
            epochs=epochs,
            batch_size=self.config.batch_size,
            lr=self.config.learning_rate,
            seed=self.config.seed + 1,
        )
        self.history.extend(history)
        return history

    # ------------------------------------------------------------------
    # Query → position constraints
    # ------------------------------------------------------------------

    def _query_sequence(
        self, query: QueryPattern
    ) -> List[Optional[int]]:
        """Bound value per model position, None where unbound.

        Star queries list the centre then the (predicate, object) pairs in
        triple order; chains follow the walk.  Repeated variables in
        different positions are not representable for this estimator and
        raise.
        """
        if query.size != self.size:
            raise ValueError(
                f"model is for size {self.size}, query has {query.size}"
            )
        topo = query.topology()
        if self.topology == "star":
            if topo not in (Topology.STAR, Topology.SINGLE):
                raise ValueError("star model got a non-star query")
            terms: List[PatternTerm] = [query.triples[0].s]
            for tp in query.triples:
                terms.extend((tp.p, tp.o))
        else:
            if topo not in (Topology.CHAIN, Topology.SINGLE):
                raise ValueError("chain model got a non-chain query")
            terms = [query.triples[0].s]
            for tp in query.triples:
                terms.extend((tp.p, tp.o))
        self._check_variable_use(query, terms)
        return [t if is_bound(t) else None for t in terms]

    def _check_variable_use(
        self, query: QueryPattern, terms: List[PatternTerm]
    ) -> None:
        # The flattening above already encodes the topology's structural
        # sharing (star centre appears once; chain joints appear once).
        # Any *additional* sharing (e.g. two star objects forced equal)
        # would make the factorisation wrong, so reject it.
        variables = [t for t in terms if isinstance(t, Variable)]
        if len(variables) != len(set(variables)):
            raise ValueError(
                "query repeats a variable beyond the topology's structure; "
                "LMKG-U cannot estimate it directly"
            )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def estimate(self, query: QueryPattern) -> float:
        """Estimated cardinality via likelihood-weighted sampling.

        Overrides the protocol's derived form on purpose: the per-query
        sweep draws its particles from a fresh RNG stream, matching the
        paper's algorithm draw-for-draw, whereas ``estimate_batch``
        shares one stream across the batch (identical within sampling
        noise, not bitwise).
        """
        if self.model is None or self.universe is None:
            raise RuntimeError("estimate() before fit()")
        constraints = self._query_sequence(query)
        probability = self._probability(constraints)
        # Same validation contract as the batch path (finite or raise,
        # clamped non-negative), which this override bypasses.
        return float(
            finalize_estimates(
                [float(self.universe) * probability], 1, self.name
            )[0]
        )

    def _estimate_batch(self, queries) -> np.ndarray:
        """Batched likelihood-weighted estimation.

        All queries share one particle sweep: the per-position trunk
        forward runs once for a ``block x particles`` row block on the
        fused float32 trunk (incremental first layer, see
        :meth:`MADE.begin_sweep`), while the vocab-sized head streams
        in fixed cache-sized column chunks — the block width is set by
        a row budget independent of vocabulary size.  Sampling noise
        comes from one substream per (query, position), so results do
        not depend on the chunk width — individual numbers still differ
        from the per-query :meth:`estimate` within sampling noise.
        """
        if self.model is None or self.universe is None:
            raise RuntimeError("estimate() before fit()")
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        constraints = np.full(
            (len(queries), self.num_positions), -1, dtype=np.int64
        )
        for i, query in enumerate(queries):
            for j, value in enumerate(self._query_sequence(query)):
                if value is not None:
                    constraints[i, j] = value
        probabilities = np.empty(len(queries), dtype=np.float64)
        chunk, covered = self._block_chunk(constraints, probabilities)
        for lo in range(covered, len(queries), chunk):
            probabilities[lo: lo + chunk] = self._probability_block(
                constraints[lo: lo + chunk], lo
            )
        return float(self.universe) * probabilities

    # ------------------------------------------------------------------
    # Block-width selection
    # ------------------------------------------------------------------

    def _queries_per_block(self, budget: int) -> int:
        # The budget counts sweep rows (queries x particles): the trunk
        # state is all that scales with the block, because the head
        # streams the vocab dimension in fixed cache-sized chunks.
        # (The seed budgeted by particles x vocab — with a 34k-node
        # vocabulary every candidate collapsed to one query per block
        # and the trunk re-ran per query.)
        return max(int(budget) // max(self.config.particles, 1), 1)

    def _block_chunk(
        self, constraints: np.ndarray, out: np.ndarray
    ) -> Tuple[int, int]:
        """(queries per sweep block, queries already computed into *out*).

        The MADE conditional forward is memory-bound: rows/s peaks when
        the ``(block * particles, vocab)`` logit matrix stays cache
        resident and degrades several-fold beyond.  Instead of the seed's
        hard-coded 3.5e5-element budget, estimation times the sweep at
        a few candidate widths on a prefix of the real batch and caches
        the winner; a later batch wide enough to measure candidates the
        cached calibration could not re-calibrates, so a small warm-up
        batch cannot pin serving to a narrow block forever.  The timing
        blocks are real work — results are chunk-invariant by
        construction — so they are written into *out* rather than
        discarded, and the caller resumes after the covered prefix.
        ``config.chunk_budget`` pins the budget explicitly (tests,
        reproducible benchmarks); estimates never depend on the choice.
        """
        if self.config.chunk_budget is not None:
            return self._queries_per_block(self.config.chunk_budget), 0
        candidates = sorted(
            {self._queries_per_block(b) for b in _CHUNK_BUDGETS}
        )
        measurable = [c for c in candidates if c <= len(constraints)]
        if len(measurable) < 2:
            # Too small a batch to time meaningfully (one or two blocks
            # either way); keep any cached winner, else the middle
            # candidate, and leave calibration to a larger batch.
            return (
                self._tuned_chunk or candidates[len(candidates) // 2],
                0,
            )
        if (
            self._tuned_chunk is not None
            and measurable[-1] <= self._tuned_cover
        ):
            return self._tuned_chunk, 0
        self._tuned_chunk = self._calibrate_chunk(
            constraints, measurable, out
        )
        self._tuned_cover = measurable[-1]
        return self._tuned_chunk, measurable[-1]

    def _calibrate_chunk(
        self,
        constraints: np.ndarray,
        candidates: List[int],
        out: np.ndarray,
    ) -> int:
        # Warm the fused caches outside the timed region.
        out[:1] = self._probability_block(constraints[:1], 0)
        best_chunk, best_rate = candidates[0], 0.0
        for chunk in candidates:
            block = constraints[:chunk]
            start = time.perf_counter()
            result = self._probability_block(block, 0)
            elapsed = time.perf_counter() - start
            # Chunk-invariant results: the widest (last) candidate's
            # prefix stands as the final answer for those queries.
            out[:chunk] = result
            rate = len(block) / max(elapsed, 1e-9)
            if rate > best_rate:
                best_chunk, best_rate = chunk, rate
        return best_chunk

    # ------------------------------------------------------------------
    # Particle sweep
    # ------------------------------------------------------------------

    def _noise_stream(self) -> GumbelStream:
        """Lazily-built shared noise table (seed- and shape-keyed)."""
        if self._noise is None:
            self._noise = GumbelStream(
                self.config.seed,
                self.num_positions,
                max(self._vocab_sizes),
            )
        return self._noise

    def _probability_block(
        self, constraints: np.ndarray, offset: int
    ) -> np.ndarray:
        """Mean particle weight per query for one block of constraints.

        Delegates to :func:`sweep_probability_block`: one incremental
        sweep over the whole block, vocab-streamed head, representative
        rows for not-yet-diverged queries.  *offset* is the block's
        first query index within the batch; it keys the per-query noise
        substreams (chunk-width invariance).
        """
        model = self.model
        assert model is not None
        return sweep_probability_block(
            model,
            constraints,
            self.config.particles,
            self._noise_stream(),
            offset,
        )

    def _probability(
        self, constraints: Sequence[Optional[int]]
    ) -> float:
        """Single-query likelihood weighting, paper draw-for-draw.

        Keeps the seed's inverse-CDF sampler and RNG stream; only the
        trunk changed — the conditionals now come from one incremental
        fused-float32 sweep instead of a full forward per position.
        """
        model = self.model
        assert model is not None
        fully_bound = all(v is not None for v in constraints)
        particles = 1 if fully_bound else self.config.particles
        rng = np.random.default_rng(self.config.seed + 9)
        return likelihood_weighted_probability(
            model, constraints, particles, rng
        )

    def log_likelihood(self, instances: np.ndarray) -> float:
        """Mean log-likelihood of bound instances (training diagnostics)."""
        if self.model is None:
            raise RuntimeError("model not trained")
        return float(self.model.log_prob(instances).mean())

    def num_parameters(self) -> int:
        if self.model is None:
            raise RuntimeError("model not built yet")
        return self.model.num_parameters()

    def memory_bytes(self) -> int:
        """True in-memory footprint: float64 masters + fused float32
        inference caches + bool layer masks."""
        if self.model is None:
            raise RuntimeError("model not built yet")
        return self.model.memory_bytes()

    def checkpoint_bytes(self) -> int:
        """Paper-facing model size at float32 checkpoint precision."""
        if self.model is None:
            raise RuntimeError("model not built yet")
        return self.model.checkpoint_bytes()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint the ResMADE plus the shape universe count."""
        from repro.nn.serialization import save_arrays

        if self.model is None or self.universe is None:
            raise RuntimeError("save() before fit()")
        arrays = self.model.state()
        arrays["_meta_shape"] = np.array(
            [self.size, 1 if self.topology == "star" else 0]
        )
        # Universe counts are unbounded Python ints (outdeg^k sums can
        # exceed int64); store the decimal string, which npz accepts
        # without pickling.
        arrays["_meta_universe"] = np.array([str(self.universe)])
        arrays["_meta_particles"] = np.array([self.config.particles])
        # Sampler identity beyond the weights: the seed keys the noise
        # substreams, so dropping it would make a non-default-seed model
        # silently return different estimates after reload; the block
        # row budget rides along (-1 = auto-tune).
        budget = self.config.chunk_budget
        arrays["_meta_sampler"] = np.array(
            [self.config.seed, -1 if budget is None else budget],
            dtype=np.int64,
        )
        save_arrays(path, arrays)

    @classmethod
    def load(cls, path, store: TripleStore) -> "LMKGU":
        """Rebuild a trained model against the same store."""
        from repro.nn.masked import MADE
        from repro.nn.serialization import load_arrays

        arrays = load_arrays(path)
        size, is_star = arrays["_meta_shape"]
        made = MADE.from_state(arrays)
        seed, budget = (int(v) for v in arrays["_meta_sampler"])
        config = LMKGUConfig(
            embed_dim=made.embed_dim,
            hidden_sizes=tuple(made.hidden_sizes),
            residual=made.residual,
            particles=int(arrays["_meta_particles"][0]),
            seed=seed,
            chunk_budget=None if budget < 0 else budget,
        )
        model = cls(
            store,
            "star" if is_star else "chain",
            int(size),
            config,
        )
        model.model = made
        model.universe = int(arrays["_meta_universe"][0])
        return model
