"""Dataset registry: named access to the three evaluation graphs.

The experiments refer to datasets by name ("swdf", "lubm", "yago"); this
module centralises their construction, applies a common ``scale`` knob,
and memoises stores so a bench suite touching the same dataset from many
experiments only ever generates it once per process.

Beyond the in-process memo, the registry keeps an optional **snapshot
cache** on disk: pass ``cache_dir`` (or set ``REPRO_SNAPSHOT_DIR``) and
each generated store is persisted as a columnar snapshot, so the next
process memory-maps it back instead of re-running the generator.  A
corrupted snapshot (truncation, checksum mismatch, version skew) is
rebuilt transparently.  The checksum pins the *snapshot's* integrity,
not the generators': when generator code changes in a way that alters
its output, bump :data:`GENERATOR_CACHE_VERSION` (part of every cache
key) so old snapshots stop matching.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.datasets.lubm import generate_lubm
from repro.datasets.snapshot_cache import (
    GENERATOR_CACHE_VERSION,
    cache_key,
    cached_store,
)
from repro.datasets.swdf import generate_swdf
from repro.datasets.yago import generate_yago
from repro.rdf.store import TripleStore

DATASET_NAMES = ("swdf", "lubm", "yago")

#: Environment variable naming the default on-disk snapshot cache.
SNAPSHOT_DIR_ENV = "REPRO_SNAPSHOT_DIR"

_cache: Dict[Tuple[str, float, int, Optional[str]], TripleStore] = {}


def _build(name: str, scale: float, seed: int) -> TripleStore:
    if name == "swdf":
        return generate_swdf(
            conferences=max(2, int(12 * scale)),
            papers_per_conference=110,
            people_pool=max(50, int(900 * scale)),
            seed=seed,
        )
    if name == "lubm":
        return generate_lubm(universities=max(1, int(5 * scale)), seed=seed)
    if name == "yago":
        return generate_yago(
            num_triples=max(2_000, int(40_000 * scale)), seed=seed
        )
    raise KeyError(
        f"unknown dataset {name!r}; available: {', '.join(DATASET_NAMES)}"
    )


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    cache_dir: Optional[Union[str, Path]] = None,
) -> TripleStore:
    """Return the named dataset at the given scale (memoised).

    The returned store is shared; callers must not mutate it.  ``seed``
    offsets the generator seed so tests can request independent copies.
    When *cache_dir* is given (or ``REPRO_SNAPSHOT_DIR`` is set), the
    store round-trips through an on-disk columnar snapshot: a cache hit
    memory-maps the permutations back without running the generator.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(SNAPSHOT_DIR_ENV) or None
    # The resolved cache_dir is part of the memo key: a memo hit from an
    # uncached call must not swallow a later request to persist.
    key = (name, scale, seed, None if cache_dir is None else str(cache_dir))
    store = _cache.get(key)
    if store is None:
        if name not in DATASET_NAMES:
            raise KeyError(
                f"unknown dataset {name!r}; "
                f"available: {', '.join(DATASET_NAMES)}"
            )
        if cache_dir is not None:
            directory = Path(cache_dir) / cache_key(
                name,
                gen=GENERATOR_CACHE_VERSION,
                scale=scale,
                seed=seed,
            )
            store = cached_store(
                directory, lambda: _build(name, scale, seed)
            )
        else:
            store = _build(name, scale, seed)
        _cache[key] = store
    return store


def clear_cache() -> None:
    """Drop memoised datasets (used by tests that measure generation)."""
    _cache.clear()
