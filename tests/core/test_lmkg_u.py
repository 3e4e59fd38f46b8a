"""Tests for the unsupervised autoregressive estimator LMKG-U."""

import numpy as np
import pytest

from ext.lmkg_u_universal import UniversalLMKGU
from repro.core import lmkg_u
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.core.metrics import q_errors
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable
from repro.sampling import generate_workload

FAST = LMKGUConfig(
    embed_dim=16,
    hidden_sizes=(64, 64),
    epochs=6,
    training_samples=6_000,
    particles=128,
    seed=0,
)


def v(name):
    return Variable(name)


@pytest.fixture(scope="module")
def lubm_store():
    from repro.datasets import load_dataset

    return load_dataset("lubm", scale=0.5, seed=1)


@pytest.fixture(scope="module")
def star_model(lubm_store):
    model = LMKGU(lubm_store, "star", 2, FAST)
    model.fit()
    return model


@pytest.fixture(scope="module")
def chain_model(lubm_store):
    model = LMKGU(lubm_store, "chain", 2, FAST)
    model.fit()
    return model


@pytest.fixture(scope="module")
def universal_model(lubm_store):
    model = UniversalLMKGU(
        lubm_store, [("star", 2), ("chain", 2)], FAST
    )
    model.fit()
    return model


def _assert_block_width_invariant(models, queries, monkeypatch):
    """One block for the whole batch vs one query per block: the keyed
    noise substreams give every query the same draws either way.
    Residual differences come only from BLAS shape-dependent rounding
    flipping near-tied Gumbel draws, which is rare."""
    for model in models:
        monkeypatch.setattr(lmkg_u, "_BLOCK_ROWS", 10**9)
        wide = model.estimate_batch(queries)
        monkeypatch.setattr(lmkg_u, "_BLOCK_ROWS", 1)
        narrow = model.estimate_batch(queries)
        rel = np.abs(wide - narrow) / np.maximum(
            np.maximum(wide, narrow), 1.0
        )
        assert np.median(rel) < 1e-5, type(model).__name__
        assert np.mean(rel < 1e-4) >= 0.9, type(model).__name__


class TestConfiguration:
    def test_unknown_topology_rejected(self, lubm_store):
        with pytest.raises(ValueError):
            LMKGU(lubm_store, "clique", 2)

    def test_estimate_before_fit_rejected(self, lubm_store):
        model = LMKGU(lubm_store, "star", 2, FAST)
        with pytest.raises(RuntimeError):
            model.estimate(star_pattern(v("x"), [(1, v("a")), (2, v("b"))]))

    def test_size_mismatch_rejected(self, star_model):
        with pytest.raises(ValueError):
            star_model.estimate(star_pattern(v("x"), [(1, v("a"))]))

    def test_wrong_topology_rejected(self, star_model):
        with pytest.raises(ValueError):
            star_model.estimate(
                chain_pattern([v("a"), 1, v("b"), 2, v("c")])
            )

    def test_extra_variable_sharing_rejected(self, star_model):
        query = star_pattern(v("x"), [(1, v("y")), (2, v("y"))])
        with pytest.raises(ValueError):
            star_model.estimate(query)


class TestTraining:
    def test_nll_decreases(self, star_model):
        assert star_model.history[-1] < star_model.history[0]

    def test_universe_is_exact(self, star_model, lubm_store):
        from repro.sampling import count_star_instances

        assert star_model.universe == count_star_instances(lubm_store, 2)


class TestEstimationAccuracy:
    def test_star_accuracy(self, star_model, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 80, seed=21)
        estimates = [star_model.estimate(r.query) for r in workload]
        errors = q_errors(estimates, workload.cardinalities())
        assert np.exp(np.log(errors).mean()) < 6.0

    def test_chain_accuracy(self, chain_model, lubm_store):
        workload = generate_workload(lubm_store, "chain", 2, 80, seed=22)
        estimates = [chain_model.estimate(r.query) for r in workload]
        errors = q_errors(estimates, workload.cardinalities())
        assert np.exp(np.log(errors).mean()) < 6.0

    def test_fully_bound_probability_path(self, star_model, lubm_store):
        """A fully bound query takes the deterministic (1-particle) path
        and still lands near the true count."""
        from repro.sampling import StarSampler

        instance = StarSampler(lubm_store, 2, seed=3).sample()
        s, p1, o1, p2, o2 = instance
        query = QueryPattern(
            [TriplePattern(s, p1, o1), TriplePattern(s, p2, o2)]
        )
        estimate = star_model.estimate(query)
        assert estimate >= 0.0
        assert np.isfinite(estimate)

    def test_estimates_nonnegative_and_finite(self, star_model, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 30, seed=23)
        for record in workload:
            estimate = star_model.estimate(record.query)
            assert estimate >= 0.0
            assert np.isfinite(estimate)


class TestIntrospection:
    def test_memory_accounting(self, star_model):
        # Paper-facing checkpoint size stays float32; the in-memory
        # footprint additionally counts the float64 masters, the bool
        # layer masks, and every derived cache currently alive.
        params = star_model.num_parameters()
        assert star_model.checkpoint_bytes() == params * 4
        # Force every fused float32 cache into existence.
        star_model.model.log_prob(
            np.zeros((1, star_model.num_positions), dtype=np.int64)
        )
        footprint = star_model.memory_bytes()
        layers = star_model.model.hidden_layers + [
            star_model.model.out_proj
        ]
        mask_bytes = sum(layer.mask.nbytes for layer in layers)
        assert footprint >= params * 20 + mask_bytes
        # Bounded: masters + grads + fused (+ transposed tied-projection
        # tables) + masked training weights + masks.
        assert footprint <= params * 32 + mask_bytes


class TestCheckpointSampler:
    """Sampler identity across save/load: the seed keys the noise
    substreams, so a reloaded model must reproduce its estimates."""

    CONFIG = LMKGUConfig(
        embed_dim=8,
        hidden_sizes=(32,),
        epochs=1,
        training_samples=1_000,
        particles=32,
        seed=7,
    )

    def test_round_trip_with_non_default_seed(self, lubm_store, tmp_path):
        model = LMKGU(lubm_store, "star", 2, self.CONFIG)
        model.fit()
        workload = generate_workload(lubm_store, "star", 2, 12, seed=43)
        queries = [r.query for r in workload]
        before = model.estimate_batch(queries)
        path = tmp_path / "seeded.npz"
        model.save(path)
        fresh = LMKGU.load(path, lubm_store)
        assert fresh.config.seed == 7
        assert np.array_equal(before, fresh.estimate_batch(queries)), (
            "reloaded model drew from differently-keyed noise streams"
        )

    def test_checkpoint_without_sampler_meta_is_refused(
        self, lubm_store, tmp_path
    ):
        """A model file that lost its ``_meta_sampler`` entry (the
        sampler seed) is a CheckpointError — never a silent seed-0 load
        that returns different estimates."""
        import json

        from repro.core.framework import LMKG, CheckpointError, file_crc32
        from repro.nn.serialization import load_arrays, save_arrays

        framework = LMKG(
            lubm_store, model_type="unsupervised", lmkgu_config=self.CONFIG
        )
        framework.fit(shapes=[("star", 2)])
        record_path = framework.save(tmp_path / "ckpt")
        model_path = tmp_path / "ckpt" / "model_0.npz"
        arrays = load_arrays(model_path)
        del arrays["_meta_sampler"]
        save_arrays(model_path, arrays)
        # Re-record the CRC, so the file passes the artifact gate.
        record = json.loads(record_path.read_text())
        record["models"][0]["crc32"] = file_crc32(model_path)
        record_path.write_text(json.dumps(record))
        with pytest.raises(CheckpointError, match="_meta_sampler"):
            LMKG.load(tmp_path / "ckpt", lubm_store)

    def test_splitmix64_golden_values(self):
        """The Gumbel window bases hang on these exact bits: a change
        to the mix silently moves every LMKG-U estimate."""
        mixed = lmkg_u.splitmix64(
            np.array([0, 1, -1, 2**63 - 1], dtype=np.int64)
        )
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [
            0xE220A8397B1DCDAF,
            0x910A2DEC89025CC1,
            0xE4D971771B652C20,
            0x2A67D7552E039EA7,
        ]


class TestInferenceTrunk:
    """The fused float32 sweep: block-width invariance, float64 parity,
    and fused-cache invalidation through continued training."""

    def test_estimates_invariant_to_block_width(
        self, star_model, universal_model, lubm_store, monkeypatch
    ):
        workload = generate_workload(lubm_store, "star", 2, 40, seed=31)
        _assert_block_width_invariant(
            (star_model, universal_model),
            [r.query for r in workload],
            monkeypatch,
        )

    def test_qerror_parity_float32_vs_float64(
        self, star_model, lubm_store
    ):
        """The q-error distribution of float32 fused estimates matches
        the float64 trunk on a fixed workload."""
        workload = generate_workload(lubm_store, "star", 2, 100, seed=33)
        queries = [r.query for r in workload]
        truths = workload.cardinalities()
        e32 = star_model.estimate_batch(queries)
        star_model.model.set_inference_dtype(np.float64)
        try:
            e64 = star_model.estimate_batch(queries)
        finally:
            star_model.model.set_inference_dtype(np.float32)
        q32 = np.log(q_errors(e32, truths))
        q64 = np.log(q_errors(e64, truths))
        geomean32 = np.exp(q32.mean())
        geomean64 = np.exp(q64.mean())
        assert abs(geomean32 - geomean64) / geomean64 < 0.1
        p90_32 = np.exp(np.quantile(q32, 0.9))
        p90_64 = np.exp(np.quantile(q64, 0.9))
        assert abs(p90_32 - p90_64) / p90_64 < 0.25

    def test_refit_invalidates_fused_caches(self, lubm_store, tmp_path):
        """fit -> estimate -> keep training -> estimate must match a
        fresh-cache run from the checkpointed masters bit for bit."""
        from repro.sampling import sample_instances

        config = LMKGUConfig(
            embed_dim=8,
            hidden_sizes=(32,),
            epochs=1,
            training_samples=1_000,
            particles=32,
        )
        model = LMKGU(lubm_store, "star", 2, config)
        model.fit()
        workload = generate_workload(lubm_store, "star", 2, 12, seed=41)
        queries = [r.query for r in workload]
        before = model.estimate_batch(queries)  # builds fused caches
        instances, _ = sample_instances(
            lubm_store, "star", 2, 512, seed=77
        )
        model.model.fit(np.array(instances), epochs=1, batch_size=128)
        after = model.estimate_batch(queries)
        path = tmp_path / "u.npz"
        model.save(path)
        fresh = LMKGU.load(path, lubm_store)
        assert np.array_equal(after, fresh.estimate_batch(queries)), (
            "stale fused caches survived continued training"
        )
        assert not np.array_equal(before, after)

    def test_invariant_when_vocab_exceeds_column_chunk(
        self, star_model, universal_model, lubm_store, monkeypatch
    ):
        """Row-budget invariance must hold in the streamed-head regime:
        with the column chunk forced below the vocabulary size every
        head pass takes the multi-chunk path, and the fixed vocab-space
        column grid keeps each row's reduction order — hence each
        query's draws — independent of the row blocking."""
        import repro.nn.masked as masked

        vocab = max(star_model.model.vocab_sizes)
        assert vocab > 257  # the monkeypatched chunk must actually split
        monkeypatch.setattr(masked, "_HEAD_COL_CHUNK", 257)
        workload = generate_workload(lubm_store, "star", 2, 12, seed=37)
        _assert_block_width_invariant(
            (star_model, universal_model),
            [r.query for r in workload],
            monkeypatch,
        )

    def test_multi_block_batch_is_reproducible(
        self, star_model, lubm_store, tmp_path, monkeypatch
    ):
        """A batch that spans several sweep blocks answers with the
        same bytes on a second call and on a second, freshly loaded
        instance: nothing about an instance's history (or a stopwatch)
        decides how a batch is blocked."""
        particles = star_model.config.particles
        monkeypatch.setattr(lmkg_u, "_BLOCK_ROWS", 8 * particles)
        workload = generate_workload(lubm_store, "star", 2, 30, seed=35)
        queries = [r.query for r in workload]
        first = star_model.estimate_batch(queries)
        assert np.array_equal(first, star_model.estimate_batch(queries))
        star_model.save(tmp_path / "star.npz")
        fresh = LMKGU.load(tmp_path / "star.npz", lubm_store)
        assert np.array_equal(first, fresh.estimate_batch(queries))


class TestNoiseTable:
    """One read-only Gumbel table per (seed, table length) per process."""

    def test_one_seed_and_vocabulary_share_one_table(
        self, star_model, chain_model, universal_model
    ):
        table = star_model._noise_stream().table
        assert chain_model._noise_stream().table is table
        assert universal_model._noise_stream().table is table
        assert not table.flags.writeable

    def test_other_seed_gets_its_own_table(self, star_model):
        other = lmkg_u.GumbelStream(
            star_model.config.seed + 1,
            star_model.num_positions,
            max(star_model._vocab_sizes),
        )
        assert other.table is not star_model._noise_stream().table
        assert not np.array_equal(
            other.table[:64], star_model._noise_stream().table[:64]
        )

    def test_table_is_freed_with_its_last_stream(self):
        import gc
        import weakref

        streams = [lmkg_u.GumbelStream(4242, 5, 40) for _ in range(2)]
        assert streams[0].table is streams[1].table
        head = streams[0].table[:64].copy()
        ref = weakref.ref(streams[0].table)
        del streams
        gc.collect()
        assert ref() is None
        rebuilt = lmkg_u.GumbelStream(4242, 5, 40).table
        assert np.array_equal(rebuilt[:64], head)

    def test_concurrent_streams_build_one_table(self):
        import sys
        import threading

        tables = []
        start = threading.Barrier(8)

        def build():
            start.wait()
            tables.append(lmkg_u.GumbelStream(777, 5, 40).table)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == 8
        assert all(table is tables[0] for table in tables)


class _SweepSpy:
    """Records every head call and assignment of the sweeps *made*
    begins: ``(method, position, rows)``."""

    HEADS = ("head_lse_pick", "head_gumbel_argmax", "head_categorical_sample")

    def __init__(self, made, monkeypatch):
        self.calls = []
        self.sweeps = []
        begin = made.begin_sweep

        def begin_sweep(ids):
            sweep = begin(ids)
            self.sweeps.append(sweep)
            for attr in self.HEADS + ("assign",):
                fn = getattr(sweep, attr)

                def call(position, rows, *args, _fn=fn, _attr=attr):
                    self.calls.append((_attr, position, np.asarray(rows)))
                    return _fn(position, rows, *args)

                setattr(sweep, attr, call)
            return sweep

        monkeypatch.setattr(made, "begin_sweep", begin_sweep)


def _full_sweep(made, constraints, particles, noise):
    """The sweep without the stop at the last bound position: every
    position runs, every unbound position draws (a dead draw zeroes its
    particle) and every position but the final one is assigned.  Head
    calls group rows as the batched sweep does (undiverged queries on
    one representative row, listed first), so float32 rounding matches
    it bit for bit."""
    num_queries, positions = constraints.shape
    sweep = made.begin_sweep(
        np.zeros((num_queries * particles, positions), dtype=np.int64)
    )
    weights = np.ones((num_queries, particles))
    column = np.zeros((num_queries, particles), dtype=np.int64)
    diverged = np.zeros(num_queries, dtype=bool)
    particle = np.arange(particles)
    for position in range(positions):
        values = constraints[:, position]
        bound = values >= 0
        rep = np.flatnonzero(bound & ~diverged)
        full = np.flatnonzero(bound & diverged)
        if bound.any():
            lse, picked = sweep.head_lse_pick(
                position,
                np.concatenate([
                    rep * particles,
                    (full[:, None] * particles + particle).ravel(),
                ]),
                np.concatenate([
                    values[rep], np.repeat(values[full], particles)
                ]),
            )
            factor = np.exp(picked - lse)
            weights[rep] *= factor[: rep.size, None]
            weights[full] *= factor[rep.size:].reshape(-1, particles)
            column[bound] = values[bound, None]
        rep = np.flatnonzero(~bound & ~diverged)
        full = np.flatnonzero(~bound & diverged)
        if rep.size:
            choice, peak, first = sweep.head_categorical_sample(
                position, rep * particles,
                noise.uniforms(rep, position, particles).reshape(
                    rep.size, particles
                ),
            )
            dead = (peak - first) <= lmkg_u._DEAD_LOG_MARGIN
            column[rep] = np.where(dead[:, None], 1, choice)
            weights[rep[dead]] = 0.0
        if full.size:
            choice, peak, first = sweep.head_gumbel_argmax(
                position, (full[:, None] * particles + particle).ravel(),
                noise.table, noise.bases(full, position, particles),
            )
            dead = ((peak - first) <= lmkg_u._DEAD_LOG_MARGIN).reshape(
                full.size, particles
            )
            column[full] = np.where(
                dead, 1, choice.reshape(full.size, particles)
            )
            weights[full] = np.where(dead, 0.0, weights[full])
        diverged |= ~bound
        if position != positions - 1:
            sweep.assign(position, column.reshape(-1))
    return weights.mean(axis=1)

class TestSweepWork:
    """The sweep stops at each query's last bound position, and its head
    scratch lives in one bounded workspace."""

    def _queries(self, lubm_store, count=32):
        workload = generate_workload(lubm_store, "star", 2, count, seed=45)
        return [r.query for r in workload][:count]

    def test_no_head_call_after_last_bound_position(
        self, star_model, lubm_store, monkeypatch
    ):
        queries = self._queries(lubm_store)
        particles = star_model.config.particles
        sequences = np.array([
            [-1 if v is None else v for v in star_model._query_sequence(q)]
            for q in queries
        ])
        last = np.where(
            sequences >= 0, np.arange(sequences.shape[1]), -1
        ).max(axis=1)
        assert (last < star_model.num_positions - 1).any()
        spy = _SweepSpy(star_model.model, monkeypatch)
        star_model.estimate_batch(queries)
        heads = [c for c in spy.calls if c[0] != "assign"]
        assert any(c[0] != "head_lse_pick" for c in heads)
        for method, position, rows in heads:
            owners = last[rows // particles]
            if method == "head_lse_pick":
                assert (position <= owners).all()
            else:
                assert (position < owners).all(), method
        assigned = [c[1] for c in spy.calls if c[0] == "assign"]
        assert assigned == list(range(last.max()))


    def test_trailing_unbound_positions_in_a_mixed_batch(
        self, star_model, lubm_store
    ):
        """Queries that stop early share a block with a fully bound one:
        a node-bound query followed by a variable predicate, and one with
        no bound term.  Their trailing rows must hold ids valid for the
        positions the sweep still assigns, and every estimate equals the
        sweep that runs and draws every position."""
        from repro.sampling import StarSampler

        s, p1, o1, p2, o2 = StarSampler(lubm_store, 2, seed=3).sample()
        queries = [
            QueryPattern(
                [TriplePattern(s, p1, o1), TriplePattern(s, v("p"), v("o"))]
            ),
            QueryPattern(
                [TriplePattern(s, p1, o1), TriplePattern(s, p2, o2)]
            ),
            QueryPattern([
                TriplePattern(v("s"), v("p1"), v("o1")),
                TriplePattern(v("s"), v("p2"), v("o2")),
            ]),
        ]
        predicates = star_model._vocab_sizes[star_model._var_vocabs[3]]
        assert o1 >= predicates  # a stale node id is no predicate id
        estimates = star_model.estimate_batch(queries)
        constraints = np.array([
            [-1 if t is None else t for t in star_model._query_sequence(q)]
            for q in queries
        ])
        full = _full_sweep(
            star_model.model, constraints, star_model.config.particles,
            star_model._noise_stream(),
        )
        assert np.array_equal(
            estimates, float(star_model.universe) * full
        )
        assert estimates[2] == float(star_model.universe)

    def test_workspace_stays_within_budget(
        self, star_model, lubm_store, monkeypatch
    ):
        import repro.nn.masked as masked

        queries = self._queries(lubm_store)
        spy = _SweepSpy(star_model.model, monkeypatch)
        wide = star_model.estimate_batch(queries)
        small = 1 << 16
        default = masked._HEAD_WORKSPACE_BYTES
        monkeypatch.setattr(masked, "_HEAD_WORKSPACE_BYTES", small)
        narrow = star_model.estimate_batch(queries)
        assert np.array_equal(wide, narrow)
        first, second = spy.sweeps
        assert first.ids.shape[0] >= 4096
        assert first._workspace.nbytes <= default
        assert second._workspace.nbytes <= small


class TestDeadConditional:
    """A draw whose float32 mass sits all on the reserved id 0 zeroes its
    particle before the query's last bound position; after it, no draw
    is made, so no weight is zeroed."""

    def _made(self):
        from repro.nn import MADE

        return MADE(
            var_vocabs=[0, 1, 0, 1, 0],
            vocab_sizes=[40, 12],
            embed_dim=8,
            hidden_sizes=(16,),
            residual=True,
            seed=3,
        )

    def _probability(self, made, kill=None):
        if kill is not None:
            bias = made.out_bias[kill]
            bias.value[:] = -300.0
            bias.value[0] = 300.0
            bias.bump_version()
        # Bound predicates at positions 1 and 3; position 4 trails.
        return lmkg_u.sweep_probabilities(
            made, [[None, 2, None, 3, None]], 16,
            lmkg_u.GumbelStream(0, 5, 40),
        )[0]

    def test_trailing_dead_conditional_keeps_the_weight(self):
        alive = self._probability(self._made())
        assert alive > 0.0
        assert self._probability(self._made(), kill=4) == alive

    @pytest.mark.parametrize("position", [0, 2])
    def test_dead_conditional_before_last_bound_zeroes_the_weight(
        self, position
    ):
        """Position 0 draws through the shared-prefix sampler, position
        2 through the per-particle Gumbel competition."""
        assert self._probability(self._made(), kill=position) == 0.0
