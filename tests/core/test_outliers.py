"""Tests for the outlier buffer (§VIII-C's proposed improvement)."""

import pytest

from ext.outliers import BufferedEstimator, OutlierBuffer
from repro.rdf.pattern import star_pattern
from repro.rdf.terms import Variable
from repro.sampling.workload import QueryRecord


def v(name):
    return Variable(name)


def record(obj_id, card):
    query = star_pattern(v("x"), [(1, obj_id), (2, v("y"))])
    return QueryRecord(query, "star", 2, card)


@pytest.fixture
def records():
    return [record(i, card) for i, card in enumerate(
        [5, 10_000, 3, 800, 90_000, 12, 2_500], start=1
    )]


class TestOutlierBuffer:
    def test_stores_heaviest(self, records):
        buffer = OutlierBuffer(capacity=2)
        stored = buffer.fit(records)
        assert stored == 2
        assert buffer.lookup(records[4].query) == 90_000
        assert buffer.lookup(records[1].query) == 10_000
        assert buffer.lookup(records[0].query) is None

    def test_threshold_is_smallest_buffered(self, records):
        buffer = OutlierBuffer(capacity=3)
        buffer.fit(records)
        assert buffer.threshold == 2_500

    def test_zero_capacity(self, records):
        buffer = OutlierBuffer(capacity=0)
        assert buffer.fit(records) == 0
        assert buffer.lookup(records[1].query) is None

    def test_variable_renaming_invariant(self, records):
        buffer = OutlierBuffer(capacity=1)
        buffer.fit(records)
        renamed = star_pattern(v("a"), [(1, 5), (2, v("b"))])
        assert buffer.lookup(renamed) == 90_000

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            OutlierBuffer(capacity=-1)

    def test_refit_clears_old_entries(self, records):
        buffer = OutlierBuffer(capacity=2)
        buffer.fit(records)
        buffer.fit(records[:1])
        assert buffer.lookup(records[4].query) is None
        assert buffer.lookup(records[0].query) == 5


class _ConstantModel:
    name = "const"

    def estimate(self, query):
        return 42.0

    def memory_bytes(self):
        return 1000


class TestBufferedEstimator:
    def test_buffer_hit_returns_exact(self, records):
        wrapped = BufferedEstimator(
            _ConstantModel(), records, capacity=2
        )
        assert wrapped.estimate(records[4].query) == 90_000.0
        assert wrapped.hits == 1

    def test_miss_delegates(self, records):
        wrapped = BufferedEstimator(
            _ConstantModel(), records, capacity=1
        )
        assert wrapped.estimate(records[0].query) == 42.0
        assert wrapped.misses == 1

    def test_memory_includes_buffer(self, records):
        wrapped = BufferedEstimator(
            _ConstantModel(), records, capacity=3
        )
        assert wrapped.memory_bytes() == 1000 + 3 * 64

    def test_name_derived(self, records):
        wrapped = BufferedEstimator(
            _ConstantModel(), records, capacity=1
        )
        assert wrapped.name == "const+buf"

    def test_improves_real_model_on_outliers(self, lubm_store):
        """Wrapping LMKG-S with a buffer fixes exactly the Fig. 5
        failure: the buffered variant answers the heaviest training
        queries exactly."""
        from repro.core.lmkg_s import LMKGS, LMKGSConfig
        from repro.core.metrics import q_errors
        from repro.sampling import generate_workload

        workload = generate_workload(lubm_store, "star", 2, 250, seed=60)
        model = LMKGS(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(hidden_sizes=(32, 32), epochs=15),
        )
        model.fit(workload.records)
        buffered = BufferedEstimator(model, workload.records, capacity=20)
        # Select the heaviest records with the buffer's own rule so a
        # cardinality tie at the boundary cannot pick different records.
        heavy = sorted(
            workload.records, key=lambda r: r.cardinality, reverse=True
        )[:20]
        raw_err = q_errors(
            [model.estimate(r.query) for r in heavy],
            [r.cardinality for r in heavy],
        )
        buf_err = q_errors(
            [buffered.estimate(r.query) for r in heavy],
            [r.cardinality for r in heavy],
        )
        assert buf_err.max() == 1.0
        assert buf_err.mean() <= raw_err.mean()
