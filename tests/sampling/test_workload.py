"""Tests for unbinding and workload generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import count_bgp
from repro.rdf.terms import Variable
from repro.sampling import (
    NUM_BUCKETS,
    Workload,
    bucket_label,
    bucket_of,
    generate_test_queries,
    generate_workload,
    query_from_instance,
    random_unbound_mask,
)


class TestBuckets:
    def test_boundaries_are_powers_of_five(self):
        assert bucket_of(1) == 0
        assert bucket_of(4) == 0
        assert bucket_of(5) == 1
        assert bucket_of(24) == 1
        assert bucket_of(25) == 2
        assert bucket_of(5**6) == 6

    def test_last_bucket_absorbs_outliers(self):
        assert bucket_of(5**8) == NUM_BUCKETS - 1

    def test_zero_cardinality_has_no_bucket(self):
        assert bucket_of(0) is None

    def test_labels(self):
        assert bucket_label(0) == "[5^0,5^1)"
        assert bucket_label(NUM_BUCKETS - 1) == "[5^6,5^9)"


class TestUnbinding:
    def test_star_mask_positions(self):
        instance = (10, 1, 20, 2, 30)
        query = query_from_instance(
            "star", instance, [True, False, True]
        )
        assert query.triples[0].s == Variable("s")
        assert query.triples[0].o == 20
        assert isinstance(query.triples[1].o, Variable)

    def test_chain_mask_positions(self):
        instance = (10, 1, 20, 2, 30)
        query = query_from_instance(
            "chain", instance, [False, True, False]
        )
        assert query.triples[0].s == 10
        assert query.triples[0].o == query.triples[1].s
        assert isinstance(query.triples[0].o, Variable)
        assert query.triples[1].o == 30

    def test_mask_length_validated(self):
        with pytest.raises(ValueError):
            query_from_instance("star", (1, 1, 2), [True])

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            query_from_instance("cycle", (1, 1, 2), [True, True])

    @given(st.integers(2, 5), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_random_mask_respects_minimum(self, num_nodes, min_unbound):
        if min_unbound > num_nodes:
            return
        rng = np.random.default_rng(0)
        mask = random_unbound_mask(num_nodes, rng, min_unbound)
        assert len(mask) == num_nodes
        assert sum(mask) >= min_unbound

    def test_unbound_instance_query_matches_instance(self, tiny_store):
        """The query produced from an instance must match that instance."""
        instance = (1, 1, 2, 2, 4)  # star: 1 -p1-> 2, 1 -p2-> 4
        query = query_from_instance("star", instance, [True, True, True])
        assert count_bgp(tiny_store, query) >= 1


class TestGenerateWorkload:
    def test_labelled_and_deduplicated(self, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 100, seed=0)
        keys = {r.query.canonical_key() for r in workload.records}
        assert len(keys) == len(workload.records)
        for record in workload.records:
            assert record.cardinality >= 1
            assert record.topology == "star"
            assert record.size == 2

    def test_deterministic(self, lubm_store):
        a = generate_workload(lubm_store, "chain", 2, 50, seed=7)
        b = generate_workload(lubm_store, "chain", 2, 50, seed=7)
        assert [r.cardinality for r in a] == [r.cardinality for r in b]

    def test_cardinalities_exact(self, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 30, seed=1)
        for record in workload.records:
            assert record.cardinality == count_bgp(
                lubm_store, record.query
            )

    def test_predicates_always_bound(self, lubm_store):
        workload = generate_workload(lubm_store, "chain", 3, 40, seed=2)
        for record in workload.records:
            for tp in record.query.triples:
                assert not isinstance(tp.p, Variable)

    def test_at_least_one_variable(self, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 40, seed=3)
        for record in workload.records:
            assert len(record.query.variables) >= 1


class TestParallelLabeling:
    """workers=N must be invisible in the output: same records, same
    cardinalities, same order as the serial path."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")

    def test_workers_equivalent_to_serial(self, lubm_store):
        serial = generate_workload(lubm_store, "star", 2, 40, seed=9)
        pooled = generate_workload(
            lubm_store, "star", 2, 40, seed=9, workers=2
        )
        assert [r.query for r in pooled] == [r.query for r in serial]
        assert [r.cardinality for r in pooled] == [
            r.cardinality for r in serial
        ]

    def test_workers_with_existing_snapshot(self, lubm_store, tmp_path):
        directory = tmp_path / "snap"
        lubm_store.save_snapshot(directory)
        serial = generate_workload(lubm_store, "chain", 2, 30, seed=3)
        pooled = generate_workload(
            lubm_store,
            "chain",
            2,
            30,
            seed=3,
            workers=2,
            snapshot_dir=directory,
        )
        assert [r.cardinality for r in pooled] == [
            r.cardinality for r in serial
        ]

    def test_all_core_workers(self, lubm_store):
        serial = generate_workload(lubm_store, "chain", 2, 20, seed=4)
        pooled = generate_workload(
            lubm_store, "chain", 2, 20, seed=4, workers=None
        )
        assert [r.cardinality for r in pooled] == [
            r.cardinality for r in serial
        ]


class TestTestQueries:
    def test_bucket_balance(self, lubm_store):
        workload = generate_test_queries(
            lubm_store, "star", 2, per_bucket=10, seed=5
        )
        by_bucket = workload.by_bucket()
        for bucket, records in by_bucket.items():
            assert len(records) <= 10
        # The low buckets must fill completely at this scale.
        assert len(by_bucket[0]) == 10
        assert len(by_bucket[1]) == 10


class TestWorkloadContainer:
    def test_split_preserves_records(self, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 60, seed=4)
        train, test = workload.split(0.75, seed=0)
        assert len(train) + len(test) == len(workload)
        assert train.topology == "star"

    def test_cardinalities_vector(self, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 20, seed=6)
        cards = workload.cardinalities()
        assert cards.shape == (len(workload),)
        assert np.all(cards >= 1)
