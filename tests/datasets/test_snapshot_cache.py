"""Tests for the on-disk dataset snapshot cache."""

import numpy as np
import pytest

from repro.datasets import (
    cache_key,
    cached_store,
    clear_cache,
    load_dataset,
)
from repro.datasets import registry
from repro.rdf import TripleStore


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_cache()
    yield
    clear_cache()


def corrupt_snapshot(directory) -> None:
    """Flip one value in a column so the checksum goes stale."""
    path = directory / "spo_o.npy"
    rows = np.load(path).copy()
    rows[0] += 1
    np.save(path, rows)


class TestCachedStore:
    def test_builder_called_once_then_cache_hit(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            store = TripleStore()
            store.add_all([(1, 1, 2), (2, 1, 3)])
            return store

        directory = tmp_path / "graph"
        first = cached_store(directory, builder)
        second = cached_store(directory, builder)
        assert len(calls) == 1
        assert sorted(first) == sorted(second)
        # The cache hit is memmap-backed — no generator, no set build.
        assert isinstance(second.backend.spo_s, np.memmap)

    def test_stale_checksum_forces_rebuild(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            store = TripleStore()
            store.add_all([(1, 1, 2), (2, 1, 3)])
            return store

        directory = tmp_path / "graph"
        cached_store(directory, builder)
        corrupt_snapshot(directory)
        rebuilt = cached_store(directory, builder)
        assert len(calls) == 2
        assert sorted(rebuilt) == [(1, 1, 2), (2, 1, 3)]
        # The rebuild resealed the cache: next call hits it.
        cached_store(directory, builder)
        assert len(calls) == 2

    def test_cache_key_is_filesystem_safe_and_stable(self):
        key = cache_key("lubm", scale=0.25, seed=3)
        assert "/" not in key
        assert key == cache_key("lubm", seed=3, scale=0.25)
        assert key != cache_key("lubm", scale=0.5, seed=3)


class TestRegistryCache:
    def test_cache_hit_skips_generator(self, tmp_path, monkeypatch):
        calls = []
        original = registry._build

        def counting_build(name, scale, seed):
            calls.append((name, scale, seed))
            return original(name, scale, seed)

        monkeypatch.setattr(registry, "_build", counting_build)
        first = load_dataset("lubm", scale=0.25, seed=3, cache_dir=tmp_path)
        clear_cache()
        second = load_dataset(
            "lubm", scale=0.25, seed=3, cache_dir=tmp_path
        )
        assert len(calls) == 1
        assert len(first) == len(second)
        assert set(first) == set(second)
        # Dictionaries survive the snapshot round trip.
        assert second.dictionary is not None
        assert second.dictionary.predicates.lookup("ub:advisor") == \
            first.dictionary.predicates.lookup("ub:advisor")

    def test_stale_snapshot_rebuilds(self, tmp_path, monkeypatch):
        calls = []
        original = registry._build

        def counting_build(name, scale, seed):
            calls.append(1)
            return original(name, scale, seed)

        monkeypatch.setattr(registry, "_build", counting_build)
        load_dataset("lubm", scale=0.25, seed=3, cache_dir=tmp_path)
        directory = tmp_path / cache_key(
            "lubm",
            gen=registry.GENERATOR_CACHE_VERSION,
            scale=0.25,
            seed=3,
        )
        corrupt_snapshot(directory)
        clear_cache()
        load_dataset("lubm", scale=0.25, seed=3, cache_dir=tmp_path)
        assert len(calls) == 2

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(registry.SNAPSHOT_DIR_ENV, str(tmp_path))
        load_dataset("yago", scale=0.1, seed=1)
        directory = tmp_path / cache_key(
            "yago",
            gen=registry.GENERATOR_CACHE_VERSION,
            scale=0.1,
            seed=1,
        )
        assert (directory / "manifest.json").is_file()

    def test_no_cache_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(registry.SNAPSHOT_DIR_ENV, raising=False)
        load_dataset("yago", scale=0.1, seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_memo_hit_does_not_swallow_cache_request(self, tmp_path):
        """Regression: an uncached memoised load must not stop a later
        cache_dir call from writing the snapshot."""
        uncached = load_dataset("yago", scale=0.1, seed=1)
        cached = load_dataset("yago", scale=0.1, seed=1, cache_dir=tmp_path)
        assert any(tmp_path.iterdir())
        assert set(uncached) == set(cached)

    def test_unknown_dataset_rejected_before_caching(self, tmp_path):
        with pytest.raises(KeyError):
            load_dataset("freebase", cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
