"""The ``StoreBackend`` adapter seam: pluggable array-native store backends.

:class:`~repro.rdf.store.TripleStore` is a facade; everything it actually
needs from its storage layer is the narrow, array-native contract defined
here as the :class:`StoreBackend` protocol — pattern ``lookup``/``count``,
sorted ndarray accessors for every bound-position shape, bulk ``rebuild``
from a row array, snapshot ``save``/``load``, a ``generation`` stamp, and
``stats``.  The design follows the pluggable-adapter idiom of dbt: one
typed interface, many interchangeable implementations, each unit-testable
against the others without touching the consumers.

Two backends ship:

- :class:`~repro.rdf.columnar.ColumnarBackend` — the flat backend: one
  snapshot as four sorted permutations, defined in
  :mod:`repro.rdf.columnar` together with the shared pattern-level
  ``lookup``/``count`` (:class:`~repro.rdf.columnar.PatternOps`).  Every
  store starts on it.
- :class:`ShardedBackend` — the same graph cut into N shard directories,
  each shard a ``ColumnarBackend`` with its own snapshot, routed by a
  stable hash of the subject (default) or the predicate.  A pattern
  whose shard key is bound is answered by the owning shard alone;
  otherwise the lookup fans out over the shards and the per-shard
  results are merged back into the exact global permutation order, so
  every accessor is byte-identical to the flat backend (property-tested in
  ``tests/rdf/test_backend.py``).  Because each shard is its own mmap'd
  snapshot, the dataset no longer has to fit one index — and worker pools
  can attach a shard subset (``shard_ids=...``) instead of the whole
  graph.

Sharding invariants the merges rely on:

- every triple lives in exactly one shard, so single-pattern counts are
  **additive** across shards and match sets **partition**;
- all triples of one subject land in one shard under subject routing
  (all triples of one predicate under predicate routing), so every
  ``(s, p)`` pair is wholly owned by one shard in *either* mode — fan-out
  merges of per-subject fan-outs and characteristic sets are exact, not
  approximate.

On-disk layout of a sharded snapshot::

    snapshot/
      manifest.json        # format "repro-sharded", shard list + CRC32s
      dictionary.json      # written by the store layer, when present
      shard-0000/          # a complete repro-columnar snapshot
        manifest.json
        spo_s.npy ... pso_o.npy
      shard-0001/
      ...

The top-level manifest records the shard count, the routing mode, and
per shard the directory, triple count and content CRC32; it is written
*after* the shards so its presence marks a complete snapshot.  Corruption
— a missing shard, a checksum mismatch, a shard swapped in from another
snapshot — raises :class:`~repro.rdf.columnar.SnapshotError` with a
description of exactly what disagreed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.rdf.columnar import (
    MANIFEST_NAME,
    BackendStats,
    ColumnarBackend,
    PatternOps,
    SnapshotError,
    coerce_rows,
    expand_ranges,
    read_manifest,
    run_starts,
)

#: On-disk format identifier of a sharded snapshot's top-level manifest.
SHARDED_FORMAT = "repro-sharded"
SHARDED_VERSION = 1

#: Shard-routing function identifier, recorded in the manifest so a load
#: can refuse a snapshot whose placement it would misroute.
ROUTING = "splitmix64"

#: Subdirectory name of shard *i* inside a sharded snapshot.
SHARD_DIR_FORMAT = "shard-{:04d}"

#: Valid shard_by modes and the row column each one routes on.
SHARD_MODES = {"subject": 0, "predicate": 1}

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_ROWS = np.empty((0, 3), dtype=np.int64)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser over an integer array, as a new uint64 array.

    Signed input is read as its two's-complement bits.  Shard placement
    must survive save/load across platforms and be uniform even for
    structured id spaces (consecutive ids, strided ids), so routing uses
    this fixed integer mix rather than Python's ``hash`` (salted per
    process for str, not guaranteed stable across versions); LMKG-U's
    Gumbel stream derives its window bases from it too.
    """
    x = np.asarray(values).astype(np.uint64)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def shard_of(values, num_shards: int) -> np.ndarray:
    """Owning shard id for an array of shard-key values, as int64."""
    values = np.atleast_1d(np.asarray(values, dtype=np.int64))
    return (splitmix64(values) % np.uint64(num_shards)).astype(np.int64)


def _merge_value_counts(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(sorted values, counts)`` into global ones.

    Values may repeat across shards (e.g. the same object reached from
    subjects in different shards); counts of equal values are summed and
    the result comes back sorted — exactly what one ``np.unique`` over
    the concatenated raw column would produce.
    """
    parts = [(v, c) for v, c in pairs if v.size]
    if not parts:
        return _EMPTY_I64, _EMPTY_I64
    if len(parts) == 1:
        return parts[0]
    values = np.concatenate([v for v, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    order = np.argsort(values, kind="stable")
    values, counts = values[order], counts[order]
    starts = run_starts(values)
    return values[starts[:-1]], np.add.reduceat(counts, starts[:-1])


def _concat_sorted(parts: List[np.ndarray]) -> np.ndarray:
    """Concatenate disjoint sorted arrays into one globally sorted array."""
    parts = [part for part in parts if part.size]
    if not parts:
        return _EMPTY_I64
    if len(parts) == 1:
        return parts[0]
    merged = np.concatenate(parts)
    merged.sort()
    return merged


@runtime_checkable
class StoreBackend(Protocol):
    """The array-native storage contract behind :class:`TripleStore`.

    An implementation owns one immutable snapshot of a triple set and
    answers every access path with sorted ndarrays; the store facade
    layers mutation staging, caching and Python-native views on top.
    Implementations must be interchangeable: for the same triple set,
    every method returns byte-identical arrays (the hypothesis suite in
    ``tests/rdf/test_backend.py`` enforces this across backends).

    ``generation`` is a plain int attribute the owning store stamps when
    it commits the backend; freshly built backends start at 0.
    """

    size: int
    generation: int

    # Pattern-level API (provided by PatternOps for the shipped backends)
    def lookup(self, s=None, p=None, o=None) -> np.ndarray: ...
    def count(self, s=None, p=None, o=None) -> int: ...

    # Bulk ingest / persistence
    def rebuild(self, rows: np.ndarray) -> "StoreBackend": ...
    def rows(self) -> np.ndarray: ...
    def isin_rows(self, rows: np.ndarray) -> np.ndarray: ...
    def save(self, directory, extra_manifest=None) -> Path: ...

    # Point and slice accessors (sorted ndarrays)
    def contains(self, s: int, p: int, o: int) -> bool: ...
    def objects_of(self, s: int, p: int) -> np.ndarray: ...
    def subjects_of(self, p: int, o: int) -> np.ndarray: ...
    def predicates_between(self, s: int, o: int) -> np.ndarray: ...
    def out_predicates(self, s: int) -> np.ndarray: ...
    def out_slice(self, s: int) -> Tuple[np.ndarray, np.ndarray]: ...
    def in_slice(self, o: int) -> Tuple[np.ndarray, np.ndarray]: ...
    def pred_slice(self, p: int) -> Tuple[np.ndarray, np.ndarray]: ...
    def pred_slice_by_object(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]: ...

    # Counts
    def out_degree(self, s: int) -> int: ...
    def in_degree(self, o: int) -> int: ...
    def predicate_count(self, p: int) -> int: ...
    def count_sp(self, s: int, p: int) -> int: ...
    def count_po(self, p: int, o: int) -> int: ...
    def count_so(self, s: int, o: int) -> int: ...

    # Domains and statistics
    def subjects(self) -> np.ndarray: ...
    def objects(self) -> np.ndarray: ...
    def predicates(self) -> np.ndarray: ...
    def nodes(self) -> np.ndarray: ...
    def subject_degrees(self) -> Tuple[np.ndarray, np.ndarray]: ...
    def object_degrees(self) -> Tuple[np.ndarray, np.ndarray]: ...
    def predicate_triple_counts(
        self,
    ) -> Tuple[np.ndarray, np.ndarray]: ...
    def predicate_subject_stats(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]: ...
    def predicate_object_stats(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]: ...
    def distinct_sp_pairs(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def subject_predicate_groups(self): ...

    # Vectorized frontier primitives
    def sp_counts(self, subjects: np.ndarray, p: int) -> np.ndarray: ...
    def sp_have_object(
        self, subjects: np.ndarray, p: int, o: int
    ) -> np.ndarray: ...
    def sp_objects(
        self, subjects: np.ndarray, p: int
    ) -> Tuple[np.ndarray, np.ndarray]: ...

    # Introspection
    def memory_bytes(self) -> int: ...
    def stats(self) -> BackendStats: ...


class ShardedBackend(PatternOps):
    """N columnar shards behind the same contract as the flat backend.

    Construction routes each row to ``shard_of(shard key) % num_shards``;
    lookups whose shard key is bound go straight to the owning shard,
    everything else fans out and merges (see the module docstring for the
    invariants that make the merges exact).  A backend may be *partially
    attached* (``shard_ids`` a subset): it then behaves as a store
    holding exactly its shards' triples — the per-shard worker mode of
    the labeling/match pools.  Partial views refuse to :meth:`save`.
    """

    __slots__ = (
        "num_shards",
        "shard_by",
        "generation",
        "size",
        "_shards",
        "_shard_ids",
        "_by_id",
        "_by_subject",
        "_subjects",
        "_subject_degrees",
        "_objects",
        "_object_degrees",
        "_predicates",
        "_predicate_triples",
        "_nodes",
    )

    def __init__(
        self,
        shards: Sequence[ColumnarBackend],
        num_shards: int,
        shard_by: str = "subject",
        shard_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if shard_by not in SHARD_MODES:
            raise ValueError(
                f"shard_by must be one of {sorted(SHARD_MODES)}, "
                f"got {shard_by!r}"
            )
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        shards = tuple(shards)
        if shard_ids is None:
            shard_ids = tuple(range(len(shards)))
        else:
            shard_ids = tuple(int(i) for i in shard_ids)
        if len(shard_ids) != len(shards):
            raise ValueError("shard_ids must parallel shards")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard_ids: {shard_ids}")
        for sid in shard_ids:
            if not 0 <= sid < num_shards:
                raise ValueError(
                    f"shard id {sid} out of range for {num_shards} shards"
                )
        self.num_shards = int(num_shards)
        self.shard_by = shard_by
        self.generation = 0
        self._shards = shards
        self._shard_ids = shard_ids
        self._by_id = dict(zip(shard_ids, shards))
        self._by_subject = shard_by == "subject"
        self.size = int(sum(shard.size for shard in shards))
        self._subjects = None
        self._subject_degrees = None
        self._objects = None
        self._object_degrees = None
        self._predicates = None
        self._predicate_triples = None
        self._nodes = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray,
        num_shards: int,
        shard_by: str = "subject",
    ) -> "ShardedBackend":
        """Shard an ``(N, 3)`` row array into *num_shards* backends."""
        rows = coerce_rows(rows)
        column = SHARD_MODES.get(shard_by)
        if column is None:
            raise ValueError(
                f"shard_by must be one of {sorted(SHARD_MODES)}, "
                f"got {shard_by!r}"
            )
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        assignments = shard_of(rows[:, column], num_shards)
        shards = [
            ColumnarBackend.from_rows(rows[assignments == sid])
            for sid in range(num_shards)
        ]
        return cls(shards, num_shards, shard_by)

    @property
    def shards(self) -> Tuple[ColumnarBackend, ...]:
        """The attached shards, parallel to :attr:`shard_ids`."""
        return self._shards

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return self._shard_ids

    @property
    def fully_attached(self) -> bool:
        return len(self._shards) == self.num_shards

    # -- routing helpers -----------------------------------------------

    def _owner(self, key: int) -> Optional[ColumnarBackend]:
        """The attached shard owning one shard-key value, if any."""
        sid = int(shard_of(np.array([key], dtype=np.int64), self.num_shards)[0])
        return self._by_id.get(sid)

    def _scatter(self, keys: np.ndarray):
        """Yield ``(shard, positions)`` groups for an array of key values."""
        assignments = shard_of(keys, self.num_shards)
        for sid, shard in self._by_id.items():
            mask = assignments == sid
            if mask.any():
                yield shard, mask

    # -- ingest / persistence ------------------------------------------

    def rebuild(self, rows: np.ndarray) -> "ShardedBackend":
        """A fresh fully-attached backend over *rows*, same shard layout."""
        return ShardedBackend.from_rows(rows, self.num_shards, self.shard_by)

    def rows(self) -> np.ndarray:
        """All triples as one ``(N, 3)`` array in global SPO order."""
        parts = [shard.rows() for shard in self._shards if shard.size]
        if not parts:
            return _EMPTY_ROWS
        if len(parts) == 1:
            return parts[0]
        merged = np.concatenate(parts)
        order = np.lexsort((merged[:, 2], merged[:, 1], merged[:, 0]))
        return merged[order]

    def isin_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = coerce_rows(rows)
        out = np.zeros(rows.shape[0], dtype=bool)
        if rows.shape[0] == 0 or self.size == 0:
            return out
        column = SHARD_MODES[self.shard_by]
        for shard, mask in self._scatter(rows[:, column]):
            out[mask] = shard.isin_rows(rows[mask])
        return out

    def save(
        self,
        directory: Union[str, Path],
        extra_manifest: Optional[Dict] = None,
    ) -> Path:
        """Write every shard as a columnar snapshot plus the top manifest.

        The top-level manifest is written last, so its presence marks a
        complete sharded snapshot; each entry cross-records the shard's
        triple count and content CRC32 so a shard swapped in from a
        different snapshot fails loudly at load time.
        """
        if not self.fully_attached:
            raise SnapshotError(
                f"cannot save a partially attached sharded backend "
                f"(holds shards {list(self._shard_ids)} of "
                f"{self.num_shards})"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries = []
        for sid, shard in zip(self._shard_ids, self._shards):
            shard_dir = SHARD_DIR_FORMAT.format(sid)
            shard.save(directory / shard_dir)
            entries.append(
                {
                    "directory": shard_dir,
                    "num_triples": shard.size,
                    "checksum": shard.content_checksum(),
                }
            )
        manifest = {
            "format": SHARDED_FORMAT,
            "version": SHARDED_VERSION,
            "num_triples": self.size,
            "num_shards": self.num_shards,
            "shard_by": self.shard_by,
            "routing": ROUTING,
            "shards": entries,
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        manifest_path = directory / MANIFEST_NAME
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return manifest_path

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        mmap_mode: Optional[str] = "r",
        verify: bool = True,
        shard_ids: Optional[Sequence[int]] = None,
    ) -> "ShardedBackend":
        """Attach a sharded snapshot, whole or a shard subset.

        Each selected shard loads through :meth:`ColumnarBackend.load`
        (memmapped, per-shard manifest validated, checksummed under
        ``verify=True``) and is then cross-checked against the top-level
        manifest entry — a shard directory swapped in from another
        snapshot has a valid manifest of its own but the wrong checksum
        here.  Raises :class:`SnapshotError` on any disagreement.
        """
        directory = Path(directory)
        manifest = read_sharded_manifest(directory)
        entries = manifest["shards"]
        num_shards = manifest["num_shards"]
        if shard_ids is None:
            selected = list(range(num_shards))
        else:
            selected = [int(i) for i in shard_ids]
            for sid in selected:
                if not 0 <= sid < num_shards:
                    raise SnapshotError(
                        f"snapshot at {directory} has {num_shards} shards; "
                        f"shard id {sid} does not exist"
                    )
        shards = []
        total = 0
        for sid in selected:
            entry = entries[sid]
            shard_dir = directory / entry["directory"]
            shard = ColumnarBackend.load(
                shard_dir, mmap_mode=mmap_mode, verify=verify
            )
            if shard.size != entry["num_triples"]:
                raise SnapshotError(
                    f"shard {shard_dir} holds {shard.size} triples; the "
                    f"sharded manifest says {entry['num_triples']}"
                )
            shard_manifest = read_manifest(shard_dir)
            if shard_manifest.get("checksum") != entry["checksum"]:
                raise SnapshotError(
                    f"shard {shard_dir} does not belong to this snapshot: "
                    f"its checksum {shard_manifest.get('checksum')!r} "
                    f"disagrees with the sharded manifest entry "
                    f"{entry['checksum']!r}"
                )
            total += shard.size
            shards.append(shard)
        if shard_ids is None and total != manifest["num_triples"]:
            raise SnapshotError(
                f"sharded snapshot at {directory} sums to {total} triples "
                f"across shards; manifest says {manifest['num_triples']}"
            )
        return cls(
            shards,
            num_shards,
            manifest["shard_by"],
            shard_ids=selected,
        )

    # -- point and slice accessors -------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        shard = self._owner(s if self._by_subject else p)
        return shard.contains(s, p, o) if shard is not None else False

    def objects_of(self, s: int, p: int) -> np.ndarray:
        shard = self._owner(s if self._by_subject else p)
        return shard.objects_of(s, p) if shard is not None else _EMPTY_I64

    def subjects_of(self, p: int, o: int) -> np.ndarray:
        if not self._by_subject:
            shard = self._owner(p)
            return (
                shard.subjects_of(p, o) if shard is not None else _EMPTY_I64
            )
        return _concat_sorted(
            [shard.subjects_of(p, o) for shard in self._shards]
        )

    def predicates_between(self, s: int, o: int) -> np.ndarray:
        if self._by_subject:
            shard = self._owner(s)
            return (
                shard.predicates_between(s, o)
                if shard is not None
                else _EMPTY_I64
            )
        return _concat_sorted(
            [shard.predicates_between(s, o) for shard in self._shards]
        )

    def out_predicates(self, s: int) -> np.ndarray:
        if self._by_subject:
            shard = self._owner(s)
            return (
                shard.out_predicates(s) if shard is not None else _EMPTY_I64
            )
        return _concat_sorted(
            [shard.out_predicates(s) for shard in self._shards]
        )

    def out_slice(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._by_subject:
            shard = self._owner(s)
            if shard is None:
                return _EMPTY_I64, _EMPTY_I64
            return shard.out_slice(s)
        parts = [shard.out_slice(s) for shard in self._shards]
        return _merge_pair(parts)

    def in_slice(self, o: int) -> Tuple[np.ndarray, np.ndarray]:
        parts = [shard.in_slice(o) for shard in self._shards]
        return _merge_pair(parts)

    def pred_slice(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return _EMPTY_I64, _EMPTY_I64
            return shard.pred_slice(p)
        parts = [shard.pred_slice(p) for shard in self._shards]
        return _merge_pair(parts)

    def pred_slice_by_object(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return _EMPTY_I64, _EMPTY_I64
            return shard.pred_slice_by_object(p)
        parts = [shard.pred_slice_by_object(p) for shard in self._shards]
        return _merge_pair(parts)

    # -- counts --------------------------------------------------------

    def out_degree(self, s: int) -> int:
        if self._by_subject:
            shard = self._owner(s)
            return shard.out_degree(s) if shard is not None else 0
        return sum(shard.out_degree(s) for shard in self._shards)

    def in_degree(self, o: int) -> int:
        return sum(shard.in_degree(o) for shard in self._shards)

    def predicate_count(self, p: int) -> int:
        if not self._by_subject:
            shard = self._owner(p)
            return shard.predicate_count(p) if shard is not None else 0
        return sum(shard.predicate_count(p) for shard in self._shards)

    def count_sp(self, s: int, p: int) -> int:
        shard = self._owner(s if self._by_subject else p)
        return shard.count_sp(s, p) if shard is not None else 0

    def count_po(self, p: int, o: int) -> int:
        if not self._by_subject:
            shard = self._owner(p)
            return shard.count_po(p, o) if shard is not None else 0
        return sum(shard.count_po(p, o) for shard in self._shards)

    def count_so(self, s: int, o: int) -> int:
        if self._by_subject:
            shard = self._owner(s)
            return shard.count_so(s, o) if shard is not None else 0
        return sum(shard.count_so(s, o) for shard in self._shards)

    # -- domains and statistics ----------------------------------------

    def subjects(self) -> np.ndarray:
        return self.subject_degrees()[0]

    def subject_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._subjects is None:
            self._subjects, self._subject_degrees = _merge_value_counts(
                [shard.subject_degrees() for shard in self._shards]
            )
        return self._subjects, self._subject_degrees

    def objects(self) -> np.ndarray:
        return self.object_degrees()[0]

    def object_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._objects is None:
            self._objects, self._object_degrees = _merge_value_counts(
                [shard.object_degrees() for shard in self._shards]
            )
        return self._objects, self._object_degrees

    def predicates(self) -> np.ndarray:
        return self.predicate_triple_counts()[0]

    def predicate_triple_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._predicates is None:
            self._predicates, self._predicate_triples = _merge_value_counts(
                [shard.predicate_triple_counts() for shard in self._shards]
            )
        return self._predicates, self._predicate_triples

    def nodes(self) -> np.ndarray:
        if self._nodes is None:
            self._nodes = np.union1d(self.subjects(), self.objects())
        return self._nodes

    def predicate_subject_stats(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return _EMPTY_I64, _EMPTY_I64
            return shard.predicate_subject_stats(p)
        return _merge_value_counts(
            [shard.predicate_subject_stats(p) for shard in self._shards]
        )

    def predicate_object_stats(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return _EMPTY_I64, _EMPTY_I64
            return shard.predicate_object_stats(p)
        return _merge_value_counts(
            [shard.predicate_object_stats(p) for shard in self._shards]
        )

    def distinct_sp_pairs(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Every (s, p) pair is wholly owned by one shard in either
        # routing mode, so the per-shard pair lists are disjoint and a
        # lexsort reconstructs the exact global SPO pair order.
        parts = [
            shard.distinct_sp_pairs()
            for shard in self._shards
            if shard.size
        ]
        if not parts:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
        if len(parts) == 1:
            return parts[0]
        pair_s = np.concatenate([part[0] for part in parts])
        pair_p = np.concatenate([part[1] for part in parts])
        fanouts = np.concatenate([part[2] for part in parts])
        order = np.lexsort((pair_p, pair_s))
        return pair_s[order], pair_p[order], fanouts[order]

    # -- vectorized frontier primitives --------------------------------

    def sp_counts(self, subjects: np.ndarray, p: int) -> np.ndarray:
        subjects = np.ascontiguousarray(subjects, dtype=np.int64)
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return np.zeros(subjects.size, dtype=np.int64)
            return shard.sp_counts(subjects, p)
        out = np.zeros(subjects.size, dtype=np.int64)
        for shard, mask in self._scatter(subjects):
            out[mask] = shard.sp_counts(subjects[mask], p)
        return out

    def sp_have_object(
        self, subjects: np.ndarray, p: int, o: int
    ) -> np.ndarray:
        subjects = np.ascontiguousarray(subjects, dtype=np.int64)
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return np.zeros(subjects.size, dtype=bool)
            return shard.sp_have_object(subjects, p, o)
        out = np.zeros(subjects.size, dtype=bool)
        for shard, mask in self._scatter(subjects):
            out[mask] = shard.sp_have_object(subjects[mask], p, o)
        return out

    def sp_objects(
        self, subjects: np.ndarray, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        subjects = np.ascontiguousarray(subjects, dtype=np.int64)
        if not self._by_subject:
            shard = self._owner(p)
            if shard is None:
                return _EMPTY_I64, np.zeros(subjects.size, dtype=np.int64)
            return shard.sp_objects(subjects, p)
        # Scatter subjects to their shards, gather per-shard object runs,
        # then place each run back at its subject's offset so the
        # concatenation order matches the input subject order exactly.
        lengths = np.zeros(subjects.size, dtype=np.int64)
        gathered = []
        for shard, mask in self._scatter(subjects):
            objs, lens = shard.sp_objects(subjects[mask], p)
            lengths[mask] = lens
            gathered.append((mask, objs))
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        out = np.empty(int(offsets[-1]), dtype=np.int64)
        for mask, objs in gathered:
            positions = np.flatnonzero(mask)
            out[
                expand_ranges(offsets[positions], lengths[positions])
            ] = objs
        return out, lengths

    # -- introspection -------------------------------------------------

    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes() for shard in self._shards)

    def stats(self) -> BackendStats:
        return BackendStats(
            backend="sharded",
            num_triples=self.size,
            num_shards=self.num_shards,
            attached_shards=len(self._shards),
            shard_by=self.shard_by,
            memory_bytes=self.memory_bytes(),
            generation=self.generation,
        )


def _merge_pair(
    parts: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard two-column slices into global permutation order.

    Each part is a (primary-sorted, secondary) column pair from one
    shard; the merged result is lexsorted by (first column, second
    column) — exactly the order the single-index slice has, because
    within one permutation slice the remaining two columns are
    lexicographically sorted.
    """
    parts = [part for part in parts if part[0].size]
    if not parts:
        return _EMPTY_I64, _EMPTY_I64
    if len(parts) == 1:
        return parts[0]
    first = np.concatenate([part[0] for part in parts])
    second = np.concatenate([part[1] for part in parts])
    order = np.lexsort((second, first))
    return first[order], second[order]


def read_sharded_manifest(directory: Union[str, Path]) -> Dict:
    """Parse and validate a sharded snapshot's top-level manifest.

    Raises :class:`SnapshotError` with the specific disagreement on a
    missing, unparsable, foreign-format, wrong-version, wrong-routing, or
    structurally invalid manifest — typed errors the callers (and the
    corrupt-manifest tests) can rely on.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise SnapshotError(f"no snapshot manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        raise SnapshotError(f"snapshot manifest {path} is not a JSON object")
    if manifest.get("format") != SHARDED_FORMAT:
        raise SnapshotError(
            f"{path} is not a {SHARDED_FORMAT} snapshot "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != SHARDED_VERSION:
        raise SnapshotError(
            f"sharded snapshot version {manifest.get('version')!r} "
            f"unsupported (expected {SHARDED_VERSION})"
        )
    if manifest.get("routing") != ROUTING:
        raise SnapshotError(
            f"sharded snapshot at {path} routes by "
            f"{manifest.get('routing')!r}; this build routes by "
            f"{ROUTING!r} and would misplace every lookup"
        )
    if manifest.get("shard_by") not in SHARD_MODES:
        raise SnapshotError(
            f"sharded snapshot at {path} has invalid shard_by "
            f"{manifest.get('shard_by')!r}"
        )
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or num_shards < 1:
        raise SnapshotError(
            f"sharded snapshot at {path} has invalid num_shards "
            f"{num_shards!r}"
        )
    num_triples = manifest.get("num_triples")
    if not isinstance(num_triples, int) or num_triples < 0:
        raise SnapshotError(
            f"sharded snapshot at {path} has invalid num_triples "
            f"{num_triples!r}"
        )
    entries = manifest.get("shards")
    if not isinstance(entries, list) or len(entries) != num_shards:
        raise SnapshotError(
            f"sharded snapshot at {path} lists "
            f"{len(entries) if isinstance(entries, list) else 'no'} "
            f"shard entries for num_shards={num_shards}"
        )
    for i, entry in enumerate(entries):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("directory"), str)
            or not isinstance(entry.get("num_triples"), int)
            or entry["num_triples"] < 0
            or not isinstance(entry.get("checksum"), str)
        ):
            raise SnapshotError(
                f"sharded snapshot at {path} has an invalid entry for "
                f"shard {i}: {entry!r}"
            )
    return manifest


def snapshot_format(directory: Union[str, Path]) -> str:
    """The ``format`` marker of the snapshot at *directory*.

    ``"repro-columnar"`` for a single-index snapshot,
    ``"repro-sharded"`` for a sharded one.  Raises
    :class:`SnapshotError` when no readable manifest exists.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise SnapshotError(f"no snapshot manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        raise SnapshotError(f"snapshot manifest {path} is not a JSON object")
    return str(manifest.get("format"))


def load_backend(
    directory: Union[str, Path],
    mmap_mode: Optional[str] = "r",
    verify: bool = True,
    shard_ids: Optional[Sequence[int]] = None,
) -> Tuple[Union[ColumnarBackend, ShardedBackend], Dict]:
    """Attach the snapshot at *directory*, whichever format it is.

    Dispatches on the manifest's ``format`` marker, so callers
    (``TripleStore.load_snapshot``, the worker pools) stay agnostic of
    how the snapshot was saved.  Returns ``(backend, manifest)``; the
    manifest is the top-level one, which carries the store layer's
    dictionary metadata in both formats.
    """
    if snapshot_format(directory) == SHARDED_FORMAT:
        backend = ShardedBackend.load(
            directory,
            mmap_mode=mmap_mode,
            verify=verify,
            shard_ids=shard_ids,
        )
        return backend, read_sharded_manifest(directory)
    # Anything else goes down the columnar path, whose manifest reader
    # raises the typed foreign-format/version errors callers rely on.
    if shard_ids is not None:
        raise SnapshotError(
            f"snapshot at {directory} is not sharded; "
            f"shard_ids={list(shard_ids)} cannot be attached"
        )
    backend = ColumnarBackend.load(
        directory, mmap_mode=mmap_mode, verify=verify
    )
    return backend, read_manifest(directory)
