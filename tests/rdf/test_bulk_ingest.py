"""Property tests for the array-native bulk ingest path.

The contract: ingesting any batch — duplicate-heavy, overlapping the
existing content, arbitrary id ranges — through ``add_all`` must leave
the store observationally identical to feeding the same triples through
the per-triple ``add`` reference, with the generation bumped exactly
once per batch that added anything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from repro.rdf import TripleStore
from repro.rdf.columnar import PERMUTATION_COLUMNS, pack_rows
from repro.rdf.store import _coerce_batch

triples_strategy = st.lists(
    st.tuples(
        st.integers(1, 12), st.integers(1, 4), st.integers(1, 12)
    ),
    max_size=60,
)

#: Ids far outside the packable-key range force the void-record fallback.
huge_triples_strategy = st.lists(
    st.tuples(
        st.integers(1, 2**62), st.integers(1, 2**62), st.integers(1, 2**62)
    ),
    max_size=30,
)


def reference_store(batches):
    """The per-triple ground truth: every batch through ``add``."""
    store = TripleStore()
    for batch in batches:
        for s, p, o in batch:
            store.add(s, p, o)
    return store


def bulk_store(batches, as_array=True):
    store = TripleStore()
    for batch in batches:
        if as_array:
            batch = np.array(list(batch), dtype=np.int64).reshape(-1, 3)
        store.add_all(batch)
    return store


def assert_identical_columns(a: TripleStore, b: TripleStore) -> None:
    col_a, col_b = a.backend, b.backend
    assert col_a.size == col_b.size
    for name in PERMUTATION_COLUMNS:
        assert np.array_equal(
            getattr(col_a, name), getattr(col_b, name)
        ), f"column {name} diverged"


class TestBatchEquivalence:
    @given(st.lists(triples_strategy, min_size=1, max_size=4))
    @STANDARD_SETTINGS
    def test_bulk_batches_match_per_triple_reference(self, batches):
        """Duplicate-heavy random batches: array path == add loop."""
        reference = reference_store(batches)
        bulk = bulk_store(batches)
        assert len(bulk) == len(reference)
        assert_identical_columns(reference, bulk)
        assert set(bulk) == set(reference)

    @given(st.lists(triples_strategy, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_iterable_input_matches_array_input(self, batches):
        assert_identical_columns(
            bulk_store(batches, as_array=True),
            bulk_store(batches, as_array=False),
        )

    @given(st.lists(huge_triples_strategy, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_void_fallback_for_unpackable_ids(self, batches):
        """Ids too large for int64 key packing use the bytewise path."""
        reference = reference_store(batches)
        bulk = bulk_store(batches)
        assert_identical_columns(reference, bulk)

    @given(triples_strategy, triples_strategy)
    @settings(max_examples=40, deadline=None)
    def test_mixed_add_then_bulk_then_add(self, first, second):
        """Interleaving mutation styles keeps every path consistent."""
        reference = TripleStore()
        mixed = TripleStore()
        for s, p, o in first:
            reference.add(s, p, o)
            mixed.add(s, p, o)
        for s, p, o in second:
            reference.add(s, p, o)
        mixed.add_all(np.array(list(second), dtype=np.int64).reshape(-1, 3))
        extra = (99, 1, 99)
        reference.add(*extra)
        mixed.add(*extra)
        assert_identical_columns(reference, mixed)


class TestGenerationSemantics:
    def test_generation_bumps_once_per_batch(self):
        store = TripleStore()
        before = store.generation
        store.add_all([(1, 1, 2), (2, 1, 3), (3, 1, 4), (1, 1, 2)])
        assert store.generation == before + 1

    def test_all_duplicate_batch_is_a_noop(self):
        store = TripleStore()
        store.add_all([(1, 1, 2), (2, 1, 3)])
        generation = store.generation
        index = store.backend
        assert store.add_all([(1, 1, 2), (2, 1, 3), (1, 1, 2)]) == 0
        assert store.generation == generation
        # The cached snapshot must survive a no-op batch untouched.
        assert store.backend is index

    def test_empty_batch_is_a_noop(self):
        store = TripleStore()
        store.add_all([(1, 1, 2)])
        generation = store.generation
        assert store.add_all([]) == 0
        assert store.add_all(np.empty((0, 3), dtype=np.int64)) == 0
        assert store.generation == generation

    def test_batch_invalidates_all_caches(self):
        store = TripleStore()
        store.add_all([(1, 1, 2), (2, 2, 3)])
        index = store.backend
        nodes = store.nodes()
        assert store.backend.out_slice(1)[1].tolist() == [2]
        assert 9 not in nodes
        added = store.add_all([(9, 1, 1), (1, 1, 2)])
        assert added == 1
        assert store.backend is not index
        assert 9 in store.nodes()
        assert store.backend.objects_of(9, 1).tolist() == [1]

    @given(st.lists(triples_strategy, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_generation_cache_behaviour_matches_reference(self, batches):
        """Snapshots are reused while unchanged, replaced after changes."""
        store = TripleStore()
        for batch in batches:
            before = store.backend
            rows = np.array(list(batch), dtype=np.int64).reshape(-1, 3)
            added = store.add_all(rows)
            after = store.backend
            if added:
                assert after is not before
                assert after.size == before.size + added
            else:
                assert after is before


class TestChunkedIngest:
    def test_batches_accumulate_without_consolidation(self):
        """Chunked bulk ingest must not rebuild the index per batch."""
        store = TripleStore()
        for start in range(0, 40, 10):
            rows = np.array(
                [(s, 1, s + 1) for s in range(start, start + 10)],
                dtype=np.int64,
            )
            assert store.add_all(rows) == 10
        assert len(store._pending) == 4
        assert len(store) == 40
        # Membership probes between batches scan pending — no rebuild.
        assert (5, 1, 6) in store
        assert (5, 1, 7) not in store
        assert store.add(5, 1, 6) is False
        assert len(store._pending) == 4
        # Overlap with both committed-free pending batches resolves.
        assert store.add_all([(5, 1, 6), (95, 1, 96)]) == 1
        assert len(store) == 41
        # One consolidation serves the read.
        assert store.backend.size == 41
        assert store._pending == []

    def test_chunked_equals_single_batch(self):
        rng = np.random.default_rng(3)
        rows = np.column_stack(
            [
                rng.integers(1, 50, 400),
                rng.integers(1, 5, 400),
                rng.integers(1, 50, 400),
            ]
        ).astype(np.int64)
        whole = TripleStore()
        whole.add_all(rows)
        chunked = TripleStore()
        for start in range(0, 400, 64):
            chunked.add_all(rows[start: start + 64])
        assert_identical_columns(whole, chunked)


class TestInputValidation:
    def test_wrong_shape_rejected(self):
        store = TripleStore()
        with pytest.raises(ValueError):
            store.add_all(np.ones((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            store.add_all(np.ones((2, 3, 1), dtype=np.int64))

    def test_coerce_accepts_generators(self):
        rows = _coerce_batch((s, 1, s + 1) for s in range(3))
        assert rows.shape == (3, 3)
        assert rows.dtype == np.int64

    def test_returns_number_actually_added(self):
        store = TripleStore()
        assert store.add_all([(1, 1, 2), (1, 1, 2), (2, 1, 3)]) == 2
        assert store.add_all([(2, 1, 3), (3, 1, 4)]) == 1
        assert len(store) == 3


class TestPackRows:
    def test_pack_rows_identifies_duplicates(self):
        rows = np.array(
            [[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=np.int64
        )
        packed = pack_rows(rows)
        assert packed[0] == packed[2]
        assert packed[0] != packed[1]

    def test_pack_rows_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pack_rows(np.ones((3, 2), dtype=np.int64))
