"""An indexed RDF triple store over an array-native columnar backend.

Triples are dictionary-encoded and kept in a **committed**
:class:`~repro.rdf.columnar.ColumnarBackend` — four sorted ``int64``
permutations (SPO, POS, OSP, PSO) that answer every
single-triple-pattern access path — plus two small
write-side structures: a *delta set* of triples inserted one at a time
and a list of *pending bulk batches* ingested through the array-native
:meth:`TripleStore.add_all`.  Each arriving batch is deduplicated on
the spot — against itself, the committed backend
(:meth:`~repro.rdf.columnar.ColumnarBackend.isin_rows`, packed-key
binary search, no index rebuild), and the batches already pending, all
through one :class:`~repro.rdf.columnar.RowKeys` encoding — so the
staged parts stay mutually disjoint and chunked ingest stays amortized:
the permutation sorts run once, at the next read, not once per batch.
Reads consolidate lazily: the first backend access after a mutation
folds delta and pending rows into a fresh committed backend, so
steady-state queries always run against flat arrays with no per-triple
Python overhead.

:class:`TripleStore` is a *facade* over mutation, statistics and
persistence; pattern access paths (``objects_of``, ``out_slice``, ...)
are read from :attr:`TripleStore.backend` as sorted ndarrays.  Every
derived structure is cached lazily and stamped with the store's
**generation counter**, which every mutation bumps (``add`` per new
triple, ``add_all`` exactly once per batch that added anything); a
cache built before a mutation can therefore never be served afterwards.

Stores round-trip to disk: :meth:`TripleStore.save_snapshot` writes the
backend's columns as ``.npy`` files next to a versioned manifest (and
the term dictionaries, when present) and
:meth:`TripleStore.load_snapshot` maps it back as read-only memmaps; no
per-triple deserialisation, pages shared across worker processes; the
default checksum verification
is one sequential CRC32 pass over the columns, skippable via
``verify=False`` for a truly O(1) load.  A memmap-backed store is
demoted to in-memory arrays on its first mutation; the on-disk snapshot
is never written through.

The store is the substrate under everything else: ground-truth
cardinality computation (:mod:`repro.rdf.matcher`), random-walk
training-data sampling (:mod:`repro.sampling`), and every baseline
estimator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.rdf.columnar import (
    ColumnarBackend,
    RowKeys,
    SnapshotError,
    coerce_rows,
    read_manifest,
)
from repro.rdf.dictionary import GraphDictionary
from repro.rdf.terms import Triple, TriplePattern, Variable, is_bound

#: File holding the term dictionaries inside a store snapshot directory.
DICTIONARY_NAME = "dictionary.json"


class ReadOnlyStoreError(RuntimeError):
    """Mutation attempted on a store opened with ``read_only=True``.

    Parallel-labeling workers attach to one shared on-disk snapshot
    (:meth:`TripleStore.load_snapshot`); a worker that mutated its copy
    would silently diverge from its siblings — every process would keep
    answering, each against a different graph.  Opening the snapshot
    read-only turns that silent divergence into this loud error.
    """


def _coerce_batch(triples) -> np.ndarray:
    """Normalise bulk-ingest input to a contiguous ``(N, 3)`` int64 array.

    Accepts an ``(N, 3)`` array (any integer dtype) or any iterable of
    ``(s, p, o)`` triples.
    """
    if not isinstance(triples, np.ndarray):
        triples = np.array(list(triples), dtype=np.int64)
    return coerce_rows(triples)


class TripleStore:
    """Triple store facade over an array-native columnar backend.

    Attributes:
        dictionary: the node/predicate dictionaries when the store was built
            from lexical data; None for purely synthetic id-level stores.
        generation: mutation counter; bumped by every successful ``add``
            and once per ``add_all`` batch that added at least one triple.
            Lazily derived structures remember the generation they were
            built at and rebuild when it moved on.
    """

    def __init__(self, dictionary: Optional[GraphDictionary] = None) -> None:
        self.dictionary = dictionary
        self.generation: int = 0
        # Set by load_snapshot(read_only=True): mutations raise instead
        # of demoting, so snapshot-sharing workers cannot diverge.
        self._read_only: bool = False
        # Provenance: the snapshot directory this store was loaded from
        # or last saved to, valid only while the generation is unchanged
        # (see :attr:`snapshot_source`).
        self._snapshot_path: Optional[Path] = None
        self._snapshot_generation: int = -1
        # Committed backend + write-side staging (see module docstring).
        self._committed: ColumnarBackend = ColumnarBackend.from_rows(
            np.empty((0, 3), dtype=np.int64)
        )
        self._delta: Set[Triple] = set()
        self._pending: List[np.ndarray] = []
        self._pending_rows: int = 0
        # Lazily built set view of pending rows for O(1) membership
        # probes; invalidated whenever pending changes.
        self._pending_probe: Optional[Set[Triple]] = None
        # Generation-stamped caches: (generation, payload).
        self._backend_cache: Optional[Tuple[int, ColumnarBackend]] = None
        self._nodes_cache: Optional[Tuple[int, List[int]]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._read_only:
            raise ReadOnlyStoreError(
                "store was opened read-only (snapshot-sharing worker); "
                "mutating it would silently diverge from sibling "
                "processes mapping the same snapshot — load with "
                "read_only=False to get a private copy-on-write store"
            )

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert a triple; returns False when it was already present.

        Raises :class:`ReadOnlyStoreError` on a store opened with
        ``read_only=True``.
        """
        self._check_writable()
        triple = (int(s), int(p), int(o))
        if (
            triple in self._delta
            or self._in_pending(triple)
            or (self._committed.size and self._committed.contains(*triple))
        ):
            return False
        self._delta.add(triple)
        self.generation += 1
        return True

    def add_all(self, triples) -> int:
        """Bulk-insert triples; returns the number actually added.

        Accepts an ``(N, 3)`` int array or any iterable of ``(s, p, o)``
        triples.  The batch is deduplicated with vectorized packed-row
        operations and merged against the existing backend — no
        per-triple Python work — and the generation is bumped **once**
        for the whole batch (not at all when every row was a duplicate).
        A memmap-backed snapshot is never mutated in place: new rows
        land in pending staging and the next consolidation builds fresh
        in-memory arrays.  Raises :class:`ReadOnlyStoreError` on a store
        opened with ``read_only=True``.
        """
        self._check_writable()
        rows = _coerce_batch(triples)
        if rows.shape[0] == 0:
            return 0
        if self._delta:
            # Mixed per-triple + bulk usage: fold the delta so the batch
            # dedupe below only has to look at arrays.  Bulk-only
            # chunked ingest never takes this branch and never pays a
            # rebuild here.
            self._consolidate()
        fresh = self._dedupe_batch(
            rows,
            self._committed if self._committed.size else None,
            self._pending,
        )
        if fresh.shape[0] == 0:
            return 0
        self._pending.append(fresh)
        self._pending_rows += int(fresh.shape[0])
        self._pending_probe = None
        self.generation += 1
        return int(fresh.shape[0])

    @staticmethod
    def _dedupe_batch(
        rows: np.ndarray,
        existing: Optional[ColumnarBackend],
        pending: Sequence[np.ndarray] = (),
    ) -> np.ndarray:
        """Unique rows of *rows* absent from *existing* and *pending*.

        One :class:`~repro.rdf.columnar.RowKeys` encoding spans the batch
        and every pending batch: packed int64 keys when the ids allow,
        void records otherwise, uniqued with an explicit sort +
        neighbour-diff.  Membership against the committed data is one
        :meth:`~repro.rdf.columnar.ColumnarBackend.isin_rows` pass — a
        packed binary search, never an index rebuild, so chunked ingest
        stays amortized.
        """
        keys = RowKeys.spanning(rows, *pending)
        fresh = np.sort(keys.of(rows))
        fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
        if pending:
            pending_keys = np.concatenate([keys.of(b) for b in pending])
            fresh = fresh[~np.isin(fresh, pending_keys)]
        unique_rows = keys.unpack(fresh)
        if existing is not None and existing.size and unique_rows.size:
            unique_rows = unique_rows[~existing.isin_rows(unique_rows)]
        return unique_rows

    def _consolidate(self) -> None:
        """Fold pending batches and the delta set into the committed backend.

        All parts are mutually disjoint and internally deduplicated by
        construction, so consolidation is one concatenation plus the
        backend rebuild — never a set round-trip.  A memmap-backed
        committed backend is replaced (its pages copied into fresh
        in-memory arrays), never written through.
        """
        if not self._pending and not self._delta:
            return
        parts = []
        if self._committed.size:
            parts.append(self._committed.rows())
        parts.extend(self._pending)
        if self._delta:
            parts.append(
                np.array(sorted(self._delta), dtype=np.int64).reshape(-1, 3)
            )
        rows = np.concatenate(parts) if parts else np.empty(
            (0, 3), dtype=np.int64
        )
        self._committed = ColumnarBackend.from_rows(rows)
        self._delta = set()
        self._pending = []
        self._pending_rows = 0
        self._pending_probe = None

    # ------------------------------------------------------------------
    # Backend access
    # ------------------------------------------------------------------

    @property
    def backend(self) -> ColumnarBackend:
        """The committed columnar backend of the current generation.

        Built lazily on first access after a mutation (no copy otherwise
        — memmap identity is preserved for loaded snapshots); all
        vectorized paths (fast counters, samplers, stats, baselines)
        read through this.  The returned backend carries the store's
        generation as its ``generation`` stamp.
        """
        cache = self._backend_cache
        if cache is None or cache[0] != self.generation:
            self._consolidate()
            self._committed.generation = self.generation
            self._backend_cache = (self.generation, self._committed)
        return self._backend_cache[1]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._committed.size + self._pending_rows + len(self._delta)

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = (int(t) for t in triple)
        if (s, p, o) in self._delta or self._in_pending((s, p, o)):
            return True
        return self._committed.contains(s, p, o)

    def _in_pending(self, triple: Triple) -> bool:
        """Membership probe over the pending bulk batches.

        One O(pending rows) set build on the first probe after a batch,
        O(1) per probe afterwards — never a consolidation: a membership
        check between ingest batches must not force a full permutation
        rebuild of the store.
        """
        if not self._pending:
            return False
        if self._pending_probe is None:
            rows = np.concatenate(self._pending)
            self._pending_probe = set(map(tuple, rows.tolist()))
        return triple in self._pending_probe

    def __iter__(self) -> Iterator[Triple]:
        return iter(map(tuple, self.backend.rows().tolist()))

    @property
    def num_triples(self) -> int:
        return len(self)

    def nodes(self) -> List[int]:
        """All node ids appearing as subject or object (sorted, cached)."""
        cache = self._nodes_cache
        if cache is None or cache[0] != self.generation:
            nodes = self.backend.nodes().tolist()
            self._nodes_cache = (self.generation, nodes)
            return nodes
        return cache[1]

    def predicates(self) -> List[int]:
        """All predicate ids in use (sorted)."""
        return self.backend.predicates().tolist()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes())

    @property
    def num_predicates(self) -> int:
        return int(self.backend.predicates().size)

    def fingerprint(self) -> Dict[str, object]:
        """The graph extent a trained model is bound to.

        Triple count, node and predicate counts (the term encoders
        derive their widths from them) and the dictionary checksum
        (None without a dictionary).  A checkpoint's ``artifact.json``
        and a maintenance watermark both record it.
        """
        return {
            "num_triples": len(self),
            "num_nodes": self.num_nodes,
            "num_predicates": self.num_predicates,
            "dictionary_checksum": (
                self.dictionary.checksum()
                if self.dictionary is not None
                else None
            ),
        }

    def vocabulary_mismatches(
        self, fingerprint: Mapping[str, object]
    ) -> List[str]:
        """How this store's vocabulary differs from a recorded
        *fingerprint*; empty when it matches.

        The one rule for "a model trained against *fingerprint* still
        speaks this graph": equal node and predicate counts and, when
        both sides carry one, an equal dictionary checksum.  The triple
        count is not part of it — a grown or shrunk graph is the delta
        maintenance fine-tunes over, while a vocabulary change can only
        be rebuilt.
        """
        mismatches = [
            f"{key}: recorded {fingerprint[key]} vs store {actual}"
            for key, actual in (
                ("num_nodes", self.num_nodes),
                ("num_predicates", self.num_predicates),
            )
            if fingerprint.get(key) not in (None, actual)
        ]
        recorded = fingerprint.get("dictionary_checksum")
        if (
            recorded is not None
            and self.dictionary is not None
            and self.dictionary.checksum() != recorded
        ):
            mismatches.append("dictionary checksum differs")
        return mismatches

    def subjects(self) -> List[int]:
        """All distinct subject ids (sorted)."""
        return self.backend.subjects().tolist()

    def objects(self) -> List[int]:
        """All distinct object ids (sorted)."""
        return self.backend.objects().tolist()

    def subjects_with_predicate(self, p: int) -> List[int]:
        """Distinct subjects appearing with predicate *p* (sorted)."""
        return self.backend.predicate_subject_stats(p)[0].tolist()

    def objects_with_predicate(self, p: int) -> List[int]:
        """Distinct objects appearing with predicate *p* (sorted)."""
        return self.backend.predicate_object_stats(p)[0].tolist()

    def out_degree(self, s: int) -> int:
        return self.backend.out_degree(s)

    def predicate_count(self, p: int) -> int:
        """Number of triples with predicate *p*."""
        return self.backend.predicate_count(p)

    # ------------------------------------------------------------------
    # Single-pattern matching
    # ------------------------------------------------------------------

    def match_pattern(self, tp: TriplePattern) -> Iterator[Triple]:
        """Yield every stored triple matching a single triple pattern.

        Repeated variables inside the pattern (e.g. ``(?x, p, ?x)``) are
        honoured: positions sharing a variable must carry equal ids.
        """
        s_b, p_b, o_b = is_bound(tp.s), is_bound(tp.p), is_bound(tp.o)
        candidates = self._candidates(tp, s_b, p_b, o_b)
        same_so = isinstance(tp.s, Variable) and tp.s == tp.o
        same_sp = isinstance(tp.s, Variable) and tp.s == tp.p
        same_po = isinstance(tp.p, Variable) and tp.p == tp.o
        for triple in candidates:
            s, p, o = triple
            if same_so and s != o:
                continue
            if same_sp and s != p:
                continue
            if same_po and p != o:
                continue
            yield triple

    def _candidates(
        self, tp: TriplePattern, s_b: bool, p_b: bool, o_b: bool
    ) -> Iterator[Triple]:
        """Route the bound positions to the backend's best access path."""
        backend = self.backend
        if s_b and p_b and o_b:
            triple = tp.as_triple()
            if backend.contains(*triple):
                yield triple
            return
        if s_b and p_b:
            for o in backend.objects_of(tp.s, tp.p).tolist():
                yield (tp.s, tp.p, o)
            return
        if p_b and o_b:
            for s in backend.subjects_of(tp.p, tp.o).tolist():
                yield (s, tp.p, tp.o)
            return
        if s_b and o_b:
            for p in backend.predicates_between(tp.s, tp.o).tolist():
                yield (tp.s, p, tp.o)
            return
        if s_b:
            preds, objs = backend.out_slice(tp.s)
            for p, o in zip(preds.tolist(), objs.tolist()):
                yield (tp.s, p, o)
            return
        if p_b:
            subs, objs = backend.pred_slice(tp.p)
            for s, o in zip(subs.tolist(), objs.tolist()):
                yield (s, tp.p, o)
            return
        if o_b:
            subs, preds = backend.in_slice(tp.o)
            for s, p in zip(subs.tolist(), preds.tolist()):
                yield (s, p, tp.o)
            return
        yield from iter(self)

    def count_pattern(self, tp: TriplePattern) -> int:
        """Exact result count of a single triple pattern.

        Every no-repeated-variable shape is a pure range width on one
        permutation — no candidate materialisation.
        """
        has_repeat = len(tp.variables) != len(set(tp.variables))
        if has_repeat:
            return sum(1 for _ in self.match_pattern(tp))
        s = tp.s if is_bound(tp.s) else None
        p = tp.p if is_bound(tp.p) else None
        o = tp.o if is_bound(tp.o) else None
        if s is None and p is None and o is None:
            return len(self)
        return self.backend.count(s, p, o)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_lexical(
        cls, triples: Iterable[Tuple[str, str, str]]
    ) -> "TripleStore":
        """Build a store (plus dictionaries) from lexical string triples."""
        dictionary = GraphDictionary()
        store = cls(dictionary)
        for s, p, o in triples:
            store.add(*dictionary.encode_triple(s, p, o))
        return store

    @classmethod
    def from_backend(
        cls,
        backend: ColumnarBackend,
        dictionary: Optional[GraphDictionary] = None,
    ) -> "TripleStore":
        """Adopt an existing backend as the committed state, as-is.

        The backend becomes the committed state at generation 0 with no
        per-triple work.  If it is memmap-backed, the first mutation
        demotes the store to in-memory arrays; the underlying files are
        never modified.
        """
        store = cls(dictionary)
        store._committed = backend
        backend.generation = 0
        store._backend_cache = (0, backend)
        return store

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True when this store was opened with ``read_only=True``."""
        return self._read_only

    @property
    def snapshot_source(self) -> Optional[Path]:
        """The on-disk snapshot this store still mirrors, if any.

        Set by :meth:`save_snapshot` and :meth:`load_snapshot` and
        **invalidated by any mutation**: once the store's generation has
        moved past the snapshotted one, the path is no longer a faithful
        image of the in-memory state, and handing it to snapshot-sharing
        workers would make them label against stale data.  Consumers
        (``repro.rdf.parallel``) therefore re-snapshot when this returns
        None instead of trusting a demoted parent's old directory.
        """
        if (
            self._snapshot_path is not None
            and self._snapshot_generation == self.generation
        ):
            return self._snapshot_path
        return None

    def save_snapshot(
        self,
        directory: Union[str, Path],
        record_source: bool = True,
    ) -> Path:
        """Persist the store (backend + dictionaries) to *directory*.

        The committed backend's columns are written as ``.npy`` files;
        the term dictionaries are written as JSON when present, the
        manifest carries the dictionary checksum, and the manifest is
        written last.  Returns the manifest path.

        By default the directory is recorded as this store's
        :attr:`snapshot_source`.  Pass ``record_source=False`` for
        throwaway snapshots (e.g. a labeling pool's tempdir): a path
        that is deleted right after use must not linger as the store's
        supposed on-disk image, or the next pool would attach its
        workers to a directory that no longer exists.
        """
        directory = Path(directory)
        extra = {"has_dictionary": self.dictionary is not None}
        if self.dictionary is not None:
            extra["dictionary_checksum"] = self.dictionary.checksum()
            directory.mkdir(parents=True, exist_ok=True)
            (directory / DICTIONARY_NAME).write_text(
                json.dumps(self.dictionary.to_payload()) + "\n",
                encoding="utf-8",
            )
        manifest = self.backend.save(directory, extra_manifest=extra)
        if record_source:
            self._snapshot_path = directory
            self._snapshot_generation = self.generation
        return manifest

    @classmethod
    def load_snapshot(
        cls,
        directory: Union[str, Path],
        mmap_mode: Optional[str] = "r",
        verify: bool = True,
        read_only: bool = False,
        load_dictionary: bool = True,
    ) -> "TripleStore":
        """Load a saved store: columns come back as read-only memmaps.

        There is no per-triple work; with the default ``verify=True``
        the load still performs one O(N) sequential CRC32 pass over the
        columns (pass ``verify=False`` for a truly O(1) load).
        ``mmap_mode=None`` loads eagerly instead.  With
        ``read_only=True`` every later mutation raises
        :class:`ReadOnlyStoreError` instead of demoting to private
        in-memory arrays — the mode parallel-labeling workers use so one
        worker cannot silently diverge from siblings mapping the same
        snapshot.  ``load_dictionary=False`` skips parsing the term
        dictionaries entirely — id-level consumers like the labeling
        pool's workers never decode a term, and re-building the
        dictionary in every worker process would be the one non-O(1),
        non-shared part of their attach.  Raises
        :class:`~repro.rdf.columnar.SnapshotError` on a missing,
        corrupted, truncated, version-mismatched or foreign-format
        snapshot.
        """
        directory = Path(directory)
        backend = ColumnarBackend.load(
            directory, mmap_mode=mmap_mode, verify=verify
        )
        manifest = read_manifest(directory)
        dictionary = None
        if manifest.get("has_dictionary") and load_dictionary:
            path = directory / DICTIONARY_NAME
            if not path.is_file():
                raise SnapshotError(
                    f"snapshot manifest promises dictionaries but "
                    f"{path} is missing"
                )
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                dictionary = GraphDictionary.from_payload(payload)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise SnapshotError(
                    f"unreadable snapshot dictionary {path}: {exc}"
                )
            expected = manifest.get("dictionary_checksum")
            if verify and expected is not None:
                checksum = dictionary.checksum()
                if checksum != expected:
                    raise SnapshotError(
                        f"snapshot dictionary at {path} failed checksum "
                        f"verification ({checksum} != {expected!r})"
                    )
        store = cls.from_backend(backend, dictionary)
        store._read_only = bool(read_only)
        store._snapshot_path = directory
        store._snapshot_generation = store.generation
        return store

    def memory_bytes(self) -> int:
        """Resident size of the permutation columns, in bytes.

        Used by the Table II memory comparison: four permutations of
        three int64 columns each, 96 bytes per triple.
        """
        return len(self) * 3 * 8 * 4
