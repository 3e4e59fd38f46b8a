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

import threading
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import Estimator
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
#: rounds to 0.0 in the fused float32 sweep — a "dead conditional",
#: an all-zero probability row over the real values.
_DEAD_LOG_MARGIN = np.float32(-104.0)

#: The process's Gumbel tables, keyed by (seed, table length): every
#: stream with the same key reads one read-only table, which is freed
#: once no stream holds it.  The lock makes look-up-or-build atomic.
_TABLES: "weakref.WeakValueDictionary[Tuple[int, int], np.ndarray]" = (
    weakref.WeakValueDictionary()
)
_TABLES_LOCK = threading.Lock()


def splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser over an integer array, as a new uint64 array.

    Signed input is read as its two's-complement bits.  The Gumbel
    stream's window bases must be identical across processes, platforms
    and numpy versions, and uniform even for structured keys
    (consecutive query indices, strided positions), so they come from
    this fixed integer mix rather than a seeded generator per key.
    """
    x = np.asarray(values).astype(np.uint64)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _gumbel_table(seed: int, length: int) -> np.ndarray:
    """*length* read-only standard-Gumbel float32 variates keyed by *seed*."""
    gen = np.random.Generator(
        np.random.Philox(key=[seed + 9, GUMBEL_STREAM_VERSION])
    )
    table = gen.standard_exponential(length, dtype=np.float32)
    # Exp(1) can round to 0 in float32; clamp to the smallest positive
    # subnormal so the log stays finite.
    np.maximum(table, np.float32(1e-45), out=table)
    np.log(table, out=table)
    np.negative(table, out=table)
    table.flags.writeable = False
    return table


class GumbelStream:
    """Shared Gumbel noise for the batched particle sweep (stream v2).

    One seed-keyed table of standard-Gumbel variates; every
    (query, position, particle) triple reads the window that starts at
    its splitmix64-derived base.  A row's draws depend only on its
    global query index, position, and particle — never on how the batch
    is blocked — which is exactly the chunk-width invariance contract
    the per-(query, position) Philox substreams of stream v1 gave.

    The table (2^21 + max vocab float32 entries, ~8.4 MB) depends only
    on the seed and its length, so it is built once per process per
    (seed, length) and shared read-only by every stream with that key:
    the models of one checkpoint, which share a seed and a vocabulary,
    hold one table between them.
    """

    def __init__(
        self, seed: int, num_positions: int, max_vocab: int
    ) -> None:
        key = (seed, _GUMBEL_TABLE_SIZE + max_vocab)
        with _TABLES_LOCK:
            table = _TABLES.get(key)
            if table is None:
                table = _TABLES[key] = _gumbel_table(*key)
        self.table = table
        self.num_positions = num_positions
        self._salt = splitmix64(np.array([seed + 9], dtype=np.uint64))[0]

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
        mixed = splitmix64(keys ^ self._salt)
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

    A value drawn at an unbound position matters only if a later bound
    position reads it, so each query stops at its last bound position:
    unbound head work runs only where ``position < last_bound[q]``, the
    sweep runs positions up to the largest last bound position of the
    block, and it assigns no value after the final position it runs.
    Until then a query past its last bound position is assigned the
    reserved id 0, so every assigned id stays inside its position's
    vocabulary.  A query with no bound position keeps weight 1.

    Until a query reaches its first unbound position all its particles
    share one identical prefix, so the head runs on a single
    representative row per such query — conditionals broadcast across
    its particles, and unbound draws come from the shared-prefix
    inverse-CDF sampler instead of a per-particle Gumbel competition.
    The full-width head only ever pays for rows that have actually
    diverged.  A draw from a dead conditional (all float32 mass on the
    reserved id 0) gives its particle weight 0.  *constraints* holds
    the bound value per (query, position), ``-1`` where unbound.
    *offset* is the block's first query index within the batch; it keys
    the per-(query, position) noise substreams, so results are
    invariant to how the batch is blocked.
    """
    num_queries, num_positions = constraints.shape
    rows = num_queries * particles
    last_bound = np.where(
        constraints >= 0, np.arange(num_positions), -1
    ).max(axis=1)
    end = int(last_bound.max(initial=-1)) + 1
    sweep = model.begin_sweep(
        np.zeros((rows, num_positions), dtype=np.int64)
    )
    weights = np.ones((num_queries, particles))
    diverged = np.zeros(num_queries, dtype=bool)
    arange_p = np.arange(particles, dtype=np.int64)
    column = np.empty((num_queries, particles), dtype=np.int64)
    for position in range(end):
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
        unbound = ~bound & (position < last_bound)
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
                # the sampled particle carries weight 0.
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
        if position != end - 1:
            # Past its last bound position a query draws nothing; its
            # rows take the reserved id 0, which every vocabulary holds.
            column[last_bound < position] = 0
            sweep.assign(position, column.reshape(rows))
    return weights.mean(axis=1)


#: Sweep rows (``queries x particles``) per block of the batched
#: estimator.  Only the trunk state scales with the block — the head
#: streams the vocabulary in fixed column chunks — so the budget is
#: independent of vocabulary size; throughput is flat from 16k to 256k
#: rows (``benchmarks/README.md``).
_BLOCK_ROWS = 65_536


def sweep_probabilities(
    model: MADE,
    constraints: Sequence[Sequence[Optional[int]]],
    particles: int,
    noise: GumbelStream,
) -> np.ndarray:
    """Mean particle weight per query, swept ``_BLOCK_ROWS`` at a time.

    *constraints* holds one sequence per query: the bound value per
    model position, None where unbound.  Each block is one
    :func:`sweep_probability_block` call keyed by its first query's
    index in the batch.  The one block loop, shared by :class:`LMKGU`
    and :class:`~repro.core.lmkg_u_universal.UniversalLMKGU`.
    """
    matrix = np.array(
        [
            [-1 if value is None else value for value in sequence]
            for sequence in constraints
        ],
        dtype=np.int64,
    )
    chunk = max(_BLOCK_ROWS // max(particles, 1), 1)
    out = np.empty(len(matrix), dtype=np.float64)
    for lo in range(0, len(matrix), chunk):
        out[lo: lo + chunk] = sweep_probability_block(
            model, matrix[lo: lo + chunk], particles, noise, lo
        )
    return out


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
        data = self._training_data(instances)
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
        data = self._training_data(instances)
        history = self.model.fit(
            data,
            epochs=epochs,
            batch_size=self.config.batch_size,
            lr=self.config.learning_rate,
            seed=self.config.seed + 1,
        )
        self.history.extend(history)
        return history

    def _training_data(self, instances) -> np.ndarray:
        """Training matrix for *instances*, drawn with the configured
        ``sample_method`` when None; refreshes :attr:`universe` from
        the live store either way."""
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
        return np.array(instances, dtype=np.int64)

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
        own = Topology.STAR if self.topology == "star" else Topology.CHAIN
        if query.topology() not in (own, Topology.SINGLE):
            raise ValueError(
                f"{self.topology} model got a non-{self.topology} query"
            )
        terms: List[PatternTerm] = [query.triples[0].s]
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

    def _estimate_batch(self, queries) -> np.ndarray:
        """Batched likelihood-weighted estimation.

        All queries share one particle sweep: the per-position trunk
        forward runs once for a ``block x particles`` row block on the
        fused float32 trunk (incremental first layer, see
        :meth:`MADE.begin_sweep`), while the vocab-sized head streams
        in fixed cache-sized column chunks.  Sampling noise comes from
        one substream per (query index, position), so a query's draws
        depend on its index in the batch and not on the block width.
        """
        if self.model is None or self.universe is None:
            raise RuntimeError("estimate() before fit()")
        return float(self.universe) * sweep_probabilities(
            self.model,
            [self._query_sequence(query) for query in queries],
            self.config.particles,
            self._noise_stream(),
        )

    def _noise_stream(self) -> GumbelStream:
        """Lazily-built noise stream over the process's shared table."""
        if self._noise is None:
            self._noise = GumbelStream(
                self.config.seed,
                self.num_positions,
                max(self._vocab_sizes),
            )
        return self._noise

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
        """In-memory footprint of the model: float64 masters + fused
        float32 inference caches + bool layer masks.  Excludes the noise
        table, which :class:`GumbelStream` shares per process."""
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
        # silently return different estimates after reload.
        arrays["_meta_sampler"] = np.array(
            [self.config.seed], dtype=np.int64
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
        config = LMKGUConfig(
            embed_dim=made.embed_dim,
            hidden_sizes=tuple(made.hidden_sizes),
            residual=made.residual,
            particles=int(arrays["_meta_particles"][0]),
            seed=int(arrays["_meta_sampler"][0]),
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
