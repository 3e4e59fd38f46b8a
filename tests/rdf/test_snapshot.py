"""Round-trip and corruption tests for columnar store persistence.

Save → load (memmap and eager) must be observationally identical to the
original store for every consumer: pattern lookups, the exact matcher,
the vectorized star/chain counters, and the random-walk samplers.
Corrupted, truncated, or version-mismatched snapshots must fail with a
clean :class:`SnapshotError`, never garbage results.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import TripleStore
from repro.rdf.columnar import (
    MANIFEST_NAME,
    PERMUTATION_COLUMNS,
    ColumnarBackend,
    SnapshotError,
)
from repro.rdf import fastcount
from repro.rdf.matcher import count_bgp
from repro.rdf.pattern import chain_pattern, star_pattern
from repro.rdf.terms import Variable, pattern
from repro.sampling.random_walk import sample_instances
from repro.sampling.workload import generate_workload

triples_strategy = st.lists(
    st.tuples(
        st.integers(1, 12), st.integers(1, 4), st.integers(1, 12)
    ),
    max_size=60,
)


@pytest.fixture
def graph_store() -> TripleStore:
    """A deterministic ~600-triple hub graph, dense enough to sample."""
    rng = np.random.default_rng(12)
    store = TripleStore()
    rows = np.column_stack(
        [
            rng.integers(1, 60, 700),
            rng.integers(1, 6, 700),
            rng.integers(1, 60, 700),
        ]
    ).astype(np.int64)
    store.add_all(rows)
    return store


def roundtrip(store, tmp_path, mmap_mode="r"):
    directory = tmp_path / "snap"
    store.save_snapshot(directory)
    return TripleStore.load_snapshot(directory, mmap_mode=mmap_mode)


PATTERN_SHAPES = [
    lambda s, p, o: pattern(s, p, o),
    lambda s, p, o: pattern(s, p, Variable("o")),
    lambda s, p, o: pattern(Variable("s"), p, o),
    lambda s, p, o: pattern(s, Variable("p"), o),
    lambda s, p, o: pattern(s, Variable("p"), Variable("o")),
    lambda s, p, o: pattern(Variable("s"), p, Variable("o")),
    lambda s, p, o: pattern(Variable("s"), Variable("p"), o),
    lambda s, p, o: pattern(Variable("s"), Variable("p"), Variable("o")),
]


class TestRoundTrip:
    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_pattern_lookups_identical(
        self, graph_store, tmp_path, mmap_mode
    ):
        loaded = roundtrip(graph_store, tmp_path, mmap_mode)
        assert len(loaded) == len(graph_store)
        probes = list(graph_store)[::37] + [(99, 99, 99)]
        for s, p, o in probes:
            for shape in PATTERN_SHAPES:
                tp = shape(s, p, o)
                assert loaded.count_pattern(tp) == \
                    graph_store.count_pattern(tp)
                assert sorted(loaded.match_pattern(tp)) == \
                    sorted(graph_store.match_pattern(tp))

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_slices_identical(self, graph_store, tmp_path, mmap_mode):
        loaded = roundtrip(graph_store, tmp_path, mmap_mode)
        original = graph_store.backend
        reloaded = loaded.backend
        for s in range(0, 62):
            assert np.array_equal(
                original.out_slice(s)[0], reloaded.out_slice(s)[0]
            )
            assert np.array_equal(
                original.in_slice(s)[1], reloaded.in_slice(s)[1]
            )
        for p in range(0, 8):
            assert np.array_equal(
                original.pred_slice(p)[0], reloaded.pred_slice(p)[0]
            )
            for o in range(0, 62, 7):
                assert np.array_equal(
                    original.subjects_of(p, o), reloaded.subjects_of(p, o)
                )

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_star_chain_counters_identical(
        self, graph_store, tmp_path, mmap_mode
    ):
        loaded = roundtrip(graph_store, tmp_path, mmap_mode)
        v = Variable
        queries = [
            star_pattern(v("x"), [(1, v("a")), (2, v("b"))]),
            star_pattern(v("x"), [(1, 5), (3, v("b"))]),
            chain_pattern([v("x"), 1, v("y"), 2, v("z")]),
            chain_pattern([3, 1, v("y"), 4, v("z")]),
        ]
        for query in queries:
            expected = fastcount.count_query(graph_store, query)
            assert fastcount.count_query(loaded, query) == expected
            assert count_bgp(loaded, query) == expected

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_sampler_draws_identical(
        self, graph_store, tmp_path, mmap_mode
    ):
        loaded = roundtrip(graph_store, tmp_path, mmap_mode)
        for topology, size in (("star", 2), ("chain", 2)):
            original = sample_instances(
                graph_store, topology, size, 40, seed=9
            )
            reloaded = sample_instances(loaded, topology, size, 40, seed=9)
            assert original == reloaded

    def test_workload_generation_identical(self, graph_store, tmp_path):
        loaded = roundtrip(graph_store, tmp_path)
        original = generate_workload(graph_store, "star", 2, 25, seed=4)
        reloaded = generate_workload(loaded, "star", 2, 25, seed=4)
        assert original.records == reloaded.records

    def test_dictionary_round_trips(self, tmp_path):
        store = TripleStore.from_lexical(
            [
                ("TheShining", "hasAuthor", "StephenKing"),
                ("IT", "hasAuthor", "StephenKing"),
                ("IT", "hasGenre", "Horror"),
            ]
        )
        loaded = roundtrip(store, tmp_path)
        assert loaded.dictionary is not None
        king = loaded.dictionary.nodes.lookup("StephenKing")
        author = loaded.dictionary.predicates.lookup("hasAuthor")
        assert king == store.dictionary.nodes.lookup("StephenKing")
        assert np.array_equal(
            loaded.backend.subjects_of(author, king),
            store.backend.subjects_of(author, king),
        )
        assert loaded.dictionary.decode_triple(next(iter(loaded))) == \
            store.dictionary.decode_triple(next(iter(store)))

    def test_empty_store_round_trips(self, tmp_path):
        loaded = roundtrip(TripleStore(), tmp_path)
        assert len(loaded) == 0
        assert loaded.nodes() == []


class TestMemmapSemantics:
    def test_loaded_columns_are_readonly_memmaps(
        self, graph_store, tmp_path
    ):
        loaded = roundtrip(graph_store, tmp_path)
        column = loaded.backend.spo_s
        assert isinstance(column, np.memmap)
        assert not column.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            column[0] = 123

    def test_mutation_demotes_to_memory_not_in_place(
        self, graph_store, tmp_path
    ):
        directory = tmp_path / "snap"
        graph_store.save_snapshot(directory)
        before = {
            name: np.load(directory / f"{name}.npy")
            for name in PERMUTATION_COLUMNS
        }
        loaded = TripleStore.load_snapshot(directory)
        assert loaded.add(1000, 1000, 1000) is True
        col = loaded.backend
        assert not isinstance(col.spo_s, np.memmap)
        assert col.contains(1000, 1000, 1000)
        assert len(loaded) == len(graph_store) + 1
        # The on-disk snapshot is untouched.
        for name in PERMUTATION_COLUMNS:
            assert np.array_equal(
                before[name], np.load(directory / f"{name}.npy")
            )

    def test_bulk_mutation_demotes_too(self, graph_store, tmp_path):
        loaded = roundtrip(graph_store, tmp_path)
        added = loaded.add_all(
            np.array([[2000, 1, 2001], [2001, 1, 2002]], dtype=np.int64)
        )
        assert added == 2
        assert not isinstance(loaded.backend.spo_s, np.memmap)
        assert len(loaded) == len(graph_store) + 2

    def test_duplicate_add_keeps_memmap_backing(
        self, graph_store, tmp_path
    ):
        loaded = roundtrip(graph_store, tmp_path)
        existing = next(iter(loaded))
        assert loaded.add(*existing) is False
        assert isinstance(loaded.backend.spo_s, np.memmap)

    def test_resave_into_own_directory_is_safe(
        self, graph_store, tmp_path
    ):
        """Regression: re-saving a memmap-backed store onto its own
        snapshot must not truncate the files its columns are mapped
        from (silent corruption)."""
        directory = tmp_path / "snap"
        graph_store.save_snapshot(directory)
        loaded = TripleStore.load_snapshot(directory)
        loaded.save_snapshot(directory)
        reloaded = TripleStore.load_snapshot(directory)
        assert sorted(reloaded) == sorted(graph_store)


class TestCorruption:
    def save(self, tmp_path):
        store = TripleStore()
        store.add_all([(1, 1, 2), (2, 1, 3), (3, 2, 1)])
        directory = tmp_path / "snap"
        store.save_snapshot(directory)
        return directory

    def manifest(self, directory):
        return json.loads((directory / MANIFEST_NAME).read_text())

    def write_manifest(self, directory, manifest):
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot manifest"):
            TripleStore.load_snapshot(tmp_path / "nowhere")

    def test_unparseable_manifest(self, tmp_path):
        directory = self.save(tmp_path)
        (directory / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="unreadable"):
            TripleStore.load_snapshot(directory)

    def test_foreign_format_rejected(self, tmp_path):
        # "repro-sharded" is the retired multi-directory layout: a
        # leftover one on disk is a typed error, not a traceback.
        for foreign in ("parquet", "repro-sharded"):
            directory = self.save(tmp_path / foreign)
            manifest = self.manifest(directory)
            manifest["format"] = foreign
            self.write_manifest(directory, manifest)
            with pytest.raises(SnapshotError, match="not a repro-columnar"):
                TripleStore.load_snapshot(directory)

    def test_version_mismatch_rejected(self, tmp_path):
        directory = self.save(tmp_path)
        manifest = self.manifest(directory)
        manifest["version"] = 999
        self.write_manifest(directory, manifest)
        with pytest.raises(SnapshotError, match="version 999"):
            TripleStore.load_snapshot(directory)

    def test_missing_column_rejected(self, tmp_path):
        directory = self.save(tmp_path)
        (directory / "pos_o.npy").unlink()
        with pytest.raises(SnapshotError, match="column missing"):
            TripleStore.load_snapshot(directory)

    def test_truncated_column_rejected(self, tmp_path):
        directory = self.save(tmp_path)
        path = directory / "spo_s.npy"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(SnapshotError):
            TripleStore.load_snapshot(directory)

    def test_length_mismatch_rejected(self, tmp_path):
        directory = self.save(tmp_path)
        np.save(directory / "osp_p.npy", np.array([1, 2], dtype=np.int64))
        with pytest.raises(SnapshotError, match="holds 2 values"):
            TripleStore.load_snapshot(directory)

    def test_wrong_dtype_rejected(self, tmp_path):
        directory = self.save(tmp_path)
        np.save(
            directory / "pso_s.npy",
            np.zeros(3, dtype=np.float64),
        )
        with pytest.raises(SnapshotError, match="dtype"):
            TripleStore.load_snapshot(directory)

    @pytest.mark.parametrize("column", ["spo_o", "pos_s", "osp_p", "pso_o"])
    def test_tampered_content_fails_checksum(self, tmp_path, column):
        """Corruption in ANY permutation must be caught — a checksum
        covering only the SPO columns would silently serve wrong query
        results from the other three (regression)."""
        directory = self.save(tmp_path)
        rows = np.load(directory / f"{column}.npy")
        rows = rows.copy()
        rows[0] += 1
        np.save(directory / f"{column}.npy", rows)
        with pytest.raises(SnapshotError, match="checksum"):
            TripleStore.load_snapshot(directory)
        # Opting out of verification loads without complaint.
        TripleStore.load_snapshot(directory, verify=False)

    def test_missing_dictionary_rejected(self, tmp_path):
        store = TripleStore.from_lexical([("a", "p", "b")])
        directory = tmp_path / "snap"
        store.save_snapshot(directory)
        (directory / "dictionary.json").unlink()
        with pytest.raises(SnapshotError, match="dictionar"):
            TripleStore.load_snapshot(directory)

    def test_tampered_dictionary_fails_checksum(self, tmp_path):
        store = TripleStore.from_lexical([("a", "p", "b")])
        directory = tmp_path / "snap"
        store.save_snapshot(directory)
        payload = json.loads((directory / "dictionary.json").read_text())
        payload["nodes"][0] = "mallory"
        (directory / "dictionary.json").write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="checksum"):
            TripleStore.load_snapshot(directory)


class TestColumnarBackendApi:
    def test_save_load_without_store(self, tmp_path):
        index = ColumnarBackend.from_rows(
            np.array([[1, 1, 2], [2, 1, 3]], dtype=np.int64)
        )
        index.save(tmp_path / "idx")
        loaded = ColumnarBackend.load(tmp_path / "idx")
        assert loaded.size == 2
        assert np.array_equal(loaded.rows(), index.rows())

    def test_extra_manifest_preserved(self, tmp_path):
        index = ColumnarBackend.from_rows(
            np.array([[1, 1, 2]], dtype=np.int64)
        )
        manifest_path = index.save(
            tmp_path / "idx", extra_manifest={"origin": "unit-test"}
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["origin"] == "unit-test"
        assert manifest["num_triples"] == 1


@pytest.mark.slow
class TestDeepEquivalence:
    """Nightly tier: memmap-backed and in-memory indexes are
    observationally identical to the matcher and fast counters on
    random graphs."""

    @given(triples_strategy, st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_snapshot_equivalence_under_random_graphs(
        self, tmp_path_factory, triples, salt
    ):
        directory = tmp_path_factory.mktemp("snap") / str(salt)
        store = TripleStore()
        store.add_all(triples)
        store.save_snapshot(directory)
        loaded = TripleStore.load_snapshot(directory)
        assert sorted(loaded) == sorted(store)
        v = Variable
        queries = [
            star_pattern(v("x"), [(1, v("a")), (2, v("b"))]),
            chain_pattern([v("x"), 1, v("y"), 1, v("z")]),
        ]
        for query in queries:
            assert fastcount.count_query(loaded, query) == \
                fastcount.count_query(store, query)
        for s, p, o in list(set(triples))[:10]:
            for shape in PATTERN_SHAPES:
                tp = shape(s, p, o)
                assert loaded.count_pattern(tp) == store.count_pattern(tp)
