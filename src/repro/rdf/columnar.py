"""The columnar store backend: four sorted permutation indexes.

A :class:`ColumnarBackend` holds one immutable snapshot of a dictionary-
encoded graph as four sorted ``int64`` column triples — the SPO, POS,
OSP, and PSO permutations of RDF-3X-style engines.  Every single-pattern
access path (any subset of {s, p, o} bound) is a pair of
``np.searchsorted`` calls producing a contiguous range over one
permutation, so lookups are ``O(log N)`` with no per-triple Python work,
and whole-range consumers (degree counts, adjacency slices, frontier
expansion) read contiguous array slices.

The backend is deliberately free of dense id-space arrays: all lookups
are binary searches over the sorted primary columns, so sparse or very
large term ids cost nothing beyond the triples themselves.

It is the store's only backend:
:class:`~repro.rdf.store.TripleStore` owns mutation and rebuilds its
backend lazily (guarded by a generation counter); the vectorized
counters (:mod:`repro.rdf.fastcount`), samplers
(:mod:`repro.sampling.random_walk`) and statistics
(:mod:`repro.rdf.stats`) all run directly against this class.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

#: (lo, hi) bounds of a contiguous range inside one permutation.
Range = Tuple[int, int]

#: On-disk snapshot format identifier and version (bumped on layout change).
SNAPSHOT_FORMAT = "repro-columnar"
SNAPSHOT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: The twelve persisted columns, one ``.npy`` file each, in manifest order.
PERMUTATION_COLUMNS = (
    "spo_s", "spo_p", "spo_o",
    "pos_p", "pos_o", "pos_s",
    "osp_o", "osp_s", "osp_p",
    "pso_p", "pso_s", "pso_o",
)


class SnapshotError(RuntimeError):
    """A snapshot directory is missing, corrupted, or incompatible."""


def read_manifest(directory: Union[str, Path]) -> Dict:
    """Parse and validate a snapshot manifest, raising :class:`SnapshotError`.

    Checks the format marker and version so a newer (or foreign) layout
    fails loudly instead of deserialising garbage.
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
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path} is not a {SNAPSHOT_FORMAT} snapshot "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {manifest.get('version')!r} unsupported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    return manifest


def coerce_rows(rows: np.ndarray) -> np.ndarray:
    """Normalise *rows* to a contiguous ``(N, 3)`` int64 array.

    The single validation point shared by every consumer of triple-row
    arrays (index construction, packing, bulk ingest); empty input of
    any shape becomes ``(0, 3)``.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(
            f"expected an (N, 3) array of triples, got shape {rows.shape}"
        )
    return rows


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """View ``(N, 3)`` int64 rows as one opaque record per row.

    The void view compares rows bytewise, which is enough for equality-
    based set operations (``np.unique``/``np.isin``) regardless of value
    range — the general-purpose fallback when rows cannot be packed into
    a single ordered int64 key.
    """
    rows = coerce_rows(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * 3))).ravel()


class RowKeys:
    """One comparable key per ``(s, p, o)`` row, shared by several row sets.

    Built with :meth:`spanning` over every row set that will be compared.
    When all ids are non-negative and the combined value ranges fit, a
    row packs into the ordered int64 key ``(s * radix_p + p) * radix_o +
    o``: sorted SPO columns pack into an already-sorted array, and
    ``np.sort`` takes its SIMD path on int64 (``np.unique`` does not,
    ~20x).  Otherwise keys fall back to :func:`pack_rows` void records —
    correct for equality, slower to sort.  :meth:`unpack` inverts either
    encoding.
    """

    __slots__ = ("radix_p", "radix_o")

    def __init__(self, lo: Tuple[int, ...], hi: Tuple[int, ...]) -> None:
        radix_p, radix_o = hi[1] + 1, hi[2] + 1
        if min(lo) >= 0 and (hi[0] + 1) * radix_p * radix_o < 2**63:
            self.radix_p: Optional[int] = radix_p
            self.radix_o: Optional[int] = radix_o
        else:
            self.radix_p = self.radix_o = None

    @classmethod
    def spanning(cls, *row_sets: np.ndarray) -> "RowKeys":
        """The encoding that covers every value of the non-empty *row_sets*."""
        lo = tuple(
            min(int(rows[:, i].min()) for rows in row_sets) for i in range(3)
        )
        hi = tuple(
            max(int(rows[:, i].max()) for rows in row_sets) for i in range(3)
        )
        return cls(lo, hi)

    @property
    def packed(self) -> bool:
        """True when keys are ordered int64 values, not void records."""
        return self.radix_p is not None

    def of_columns(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> np.ndarray:
        """Keys of the rows ``(s[i], p[i], o[i])``."""
        if self.packed:
            return (s * self.radix_p + p) * self.radix_o + o
        return pack_rows(np.column_stack((s, p, o)))

    def of(self, rows: np.ndarray) -> np.ndarray:
        """Keys of an ``(N, 3)`` row array."""
        if self.packed:
            return self.of_columns(rows[:, 0], rows[:, 1], rows[:, 2])
        return pack_rows(rows)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The ``(N, 3)`` rows a contiguous key array encodes."""
        if not self.packed:
            return keys.view(np.int64).reshape(-1, 3)
        subjects, rest = np.divmod(keys, self.radix_p * self.radix_o)
        predicates, objects = np.divmod(rest, self.radix_o)
        return np.column_stack((subjects, predicates, objects))


def _eq_range(
    column: np.ndarray, value: int, lo: int = 0, hi: Optional[int] = None
) -> Range:
    """Half-open index range where ``column[lo:hi] == value``.

    ``column[lo:hi]`` must be sorted; the returned bounds are absolute
    indices into *column*.
    """
    if hi is None:
        hi = column.size
    view = column[lo:hi]
    left = lo + int(np.searchsorted(view, value, side="left"))
    right = lo + int(np.searchsorted(view, value, side="right"))
    return left, right


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start+length)`` for many ranges at once.

    The standard CSR "ranges to indices" construction: one ``np.repeat``
    plus one global ``arange``, no Python loop.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(
        ([0], np.cumsum(lengths)[:-1])
    )
    return np.repeat(starts - offsets, lengths) + np.arange(total)


def run_starts(values: np.ndarray) -> np.ndarray:
    """Start index of every equal-value run in a sorted array, plus the
    end sentinel, so ``zip(starts, starts[1:])`` walks the groups."""
    if values.size == 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(
        np.concatenate(([True], values[1:] != values[:-1]))
    )
    return np.append(starts, values.size)


def in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean membership of *needles* in the sorted array *haystack*."""
    if haystack.size == 0:
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    pos = np.minimum(pos, haystack.size - 1)
    return haystack[pos] == needles


class ColumnarBackend:
    """Immutable sorted-permutation snapshot of a set of triples.

    ``generation`` is the stamp the owning store sets when it commits
    the backend; a freshly built or loaded one starts at 0.
    """

    __slots__ = (
        "size", "generation",
        "spo_s", "spo_p", "spo_o",
        "pos_p", "pos_o", "pos_s",
        "osp_o", "osp_s", "osp_p",
        "pso_p", "pso_s", "pso_o",
        "_subjects", "_subject_degrees",
        "_objects", "_object_degrees",
        "_predicates", "_predicate_triples",
        "_nodes",
    )

    def __init__(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> None:
        s = np.ascontiguousarray(s, dtype=np.int64)
        p = np.ascontiguousarray(p, dtype=np.int64)
        o = np.ascontiguousarray(o, dtype=np.int64)
        if not (s.shape == p.shape == o.shape) or s.ndim != 1:
            raise ValueError("s, p, o must be equal-length 1-d arrays")
        order = np.lexsort((o, p, s))
        self.spo_s, self.spo_p, self.spo_o = s[order], p[order], o[order]
        order = np.lexsort((s, o, p))
        self.pos_p, self.pos_o, self.pos_s = p[order], o[order], s[order]
        order = np.lexsort((p, s, o))
        self.osp_o, self.osp_s, self.osp_p = o[order], s[order], p[order]
        order = np.lexsort((o, s, p))
        self.pso_p, self.pso_s, self.pso_o = p[order], s[order], o[order]
        self._reset()

    def _reset(self) -> None:
        """Stamp generation 0 and clear the lazily derived domains."""
        self.size = int(self.spo_s.size)
        self.generation = 0
        self._subjects: Optional[np.ndarray] = None
        self._subject_degrees: Optional[np.ndarray] = None
        self._objects: Optional[np.ndarray] = None
        self._object_degrees: Optional[np.ndarray] = None
        self._predicates: Optional[np.ndarray] = None
        self._predicate_triples: Optional[np.ndarray] = None
        self._nodes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction and bulk ingest
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "ColumnarBackend":
        """Build from an ``(N, 3)`` array without tuple round-trips."""
        rows = coerce_rows(rows)
        return cls(rows[:, 0], rows[:, 1], rows[:, 2])

    def rows(self) -> np.ndarray:
        """The stored triples as an ``(N, 3)`` array, in SPO order."""
        return np.column_stack((self.spo_s, self.spo_p, self.spo_o))

    def isin_rows(self, rows: np.ndarray) -> np.ndarray:
        """Boolean membership of ``(N, 3)`` *rows* in this snapshot.

        One :class:`RowKeys` encoding spans the probe rows and the
        stored extremes; when it packs, the sorted SPO columns are
        already a sorted key array and membership is one
        ``searchsorted`` — no index rebuild.
        """
        rows = coerce_rows(rows)
        if self.size == 0 or rows.shape[0] == 0:
            return np.zeros(rows.shape[0], dtype=bool)
        extremes = np.array(
            [
                [self.spo_s[0], self.pso_p[0], self.osp_o[0]],
                [self.spo_s[-1], self.pso_p[-1], self.osp_o[-1]],
            ]
        )
        keys = RowKeys.spanning(rows, extremes)
        needles = keys.of(rows)
        haystack = keys.of_columns(self.spo_s, self.spo_p, self.spo_o)
        if keys.packed:
            return in_sorted(haystack, needles)
        return np.isin(needles, haystack)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def content_checksum(self) -> str:
        """CRC32 chained over all twelve columns, as 8 hex digits.

        Every column is an independently stored file that can corrupt
        independently, so all of them participate — a checksum over one
        permutation alone would wave through corruption in the other
        three (regression-tested).
        """
        crc = 0
        for name in PERMUTATION_COLUMNS:
            column = np.ascontiguousarray(getattr(self, name))
            crc = zlib.crc32(column.tobytes(), crc)
        return f"{crc & 0xFFFFFFFF:08x}"

    def save(
        self,
        directory: Union[str, Path],
        extra_manifest: Optional[Dict] = None,
    ) -> Path:
        """Persist the snapshot: one ``.npy`` per column plus a manifest.

        The manifest (written last, so its presence marks a complete
        snapshot) records the format version, triple count and content
        checksum; *extra_manifest* lets the store layer attach
        dictionary metadata.  Returns the manifest path.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name in PERMUTATION_COLUMNS:
            # Write-then-rename: saving straight onto <name>.npy would
            # truncate the very file a memmap-backed column is reading
            # from (silent corruption on an in-place re-save), and a
            # crash mid-write would leave a torn column behind.
            final = directory / f"{name}.npy"
            tmp = directory / f"{name}.tmp.npy"
            np.save(tmp, np.ascontiguousarray(getattr(self, name)))
            os.replace(tmp, final)
        manifest = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "num_triples": self.size,
            "columns": list(PERMUTATION_COLUMNS),
            "checksum": self.content_checksum(),
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
    ) -> "ColumnarBackend":
        """Load a saved snapshot, as read-only memmaps by default.

        ``mmap_mode=None`` reads the columns eagerly into memory.  Every
        column is validated against the manifest (dtype, shape, length);
        ``verify=True`` additionally recomputes the content checksum.
        Raises :class:`SnapshotError` on any mismatch or corruption.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        if manifest.get("columns") != list(PERMUTATION_COLUMNS):
            raise SnapshotError(
                f"snapshot at {directory} lists unexpected columns "
                f"{manifest.get('columns')!r}"
            )
        num_triples = manifest.get("num_triples")
        if not isinstance(num_triples, int) or num_triples < 0:
            raise SnapshotError(
                f"snapshot at {directory} has invalid num_triples "
                f"{num_triples!r}"
            )
        backend = cls.__new__(cls)
        for name in PERMUTATION_COLUMNS:
            path = directory / f"{name}.npy"
            if not path.is_file():
                raise SnapshotError(f"snapshot column missing: {path}")
            try:
                array = np.load(path, mmap_mode=mmap_mode)
            except (OSError, ValueError) as exc:
                raise SnapshotError(
                    f"unreadable snapshot column {path}: {exc}"
                )
            if array.ndim != 1 or array.dtype != np.int64:
                raise SnapshotError(
                    f"snapshot column {path} has dtype {array.dtype}/"
                    f"ndim {array.ndim}; expected 1-d int64"
                )
            if array.size != num_triples:
                raise SnapshotError(
                    f"snapshot column {path} holds {array.size} values; "
                    f"manifest says {num_triples}"
                )
            setattr(backend, name, array)
        backend._reset()
        if verify:
            checksum = backend.content_checksum()
            if checksum != manifest.get("checksum"):
                raise SnapshotError(
                    f"snapshot at {directory} failed checksum verification "
                    f"({checksum} != {manifest.get('checksum')!r})"
                )
        return backend

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------

    def subjects(self) -> np.ndarray:
        """Sorted distinct subject ids."""
        if self._subjects is None:
            self._subjects, self._subject_degrees = np.unique(
                self.spo_s, return_counts=True
            )
        return self._subjects

    def subject_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted distinct subjects, out-degree of each)."""
        self.subjects()
        return self._subjects, self._subject_degrees

    def objects(self) -> np.ndarray:
        """Sorted distinct object ids."""
        if self._objects is None:
            self._objects, self._object_degrees = np.unique(
                self.osp_o, return_counts=True
            )
        return self._objects

    def object_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted distinct objects, in-degree of each)."""
        self.objects()
        return self._objects, self._object_degrees

    def predicates(self) -> np.ndarray:
        """Sorted distinct predicate ids."""
        if self._predicates is None:
            self._predicates, self._predicate_triples = np.unique(
                self.pso_p, return_counts=True
            )
        return self._predicates

    def nodes(self) -> np.ndarray:
        """Sorted distinct node ids (subject or object position)."""
        if self._nodes is None:
            self._nodes = np.union1d(self.subjects(), self.objects())
        return self._nodes

    # ------------------------------------------------------------------
    # Range lookups (one bound position)
    # ------------------------------------------------------------------

    def s_range(self, s: int) -> Range:
        return _eq_range(self.spo_s, s)

    def p_range_pso(self, p: int) -> Range:
        return _eq_range(self.pso_p, p)

    def p_range_pos(self, p: int) -> Range:
        return _eq_range(self.pos_p, p)

    def o_range(self, o: int) -> Range:
        return _eq_range(self.osp_o, o)

    # ------------------------------------------------------------------
    # Slices (contiguous adjacency views)
    # ------------------------------------------------------------------

    def out_slice(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """(p, o) columns of all triples with subject *s* (p-sorted)."""
        lo, hi = self.s_range(s)
        return self.spo_p[lo:hi], self.spo_o[lo:hi]

    def in_slice(self, o: int) -> Tuple[np.ndarray, np.ndarray]:
        """(s, p) columns of all triples with object *o* (s-sorted)."""
        lo, hi = self.o_range(o)
        return self.osp_s[lo:hi], self.osp_p[lo:hi]

    def pred_slice(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        """(s, o) columns of all triples with predicate *p* (s-sorted)."""
        lo, hi = self.p_range_pso(p)
        return self.pso_s[lo:hi], self.pso_o[lo:hi]

    def pred_slice_by_object(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(o, s) columns of all triples with predicate *p* (o-sorted)."""
        lo, hi = self.p_range_pos(p)
        return self.pos_o[lo:hi], self.pos_s[lo:hi]

    # ------------------------------------------------------------------
    # Two-bound lookups
    # ------------------------------------------------------------------

    def objects_of(self, s: int, p: int) -> np.ndarray:
        """Sorted objects o with (s, p, o) stored."""
        lo, hi = self.s_range(s)
        lo, hi = _eq_range(self.spo_p, p, lo, hi)
        return self.spo_o[lo:hi]

    def subjects_of(self, p: int, o: int) -> np.ndarray:
        """Sorted subjects s with (s, p, o) stored."""
        lo, hi = self.p_range_pos(p)
        lo, hi = _eq_range(self.pos_o, o, lo, hi)
        return self.pos_s[lo:hi]

    def predicates_between(self, s: int, o: int) -> np.ndarray:
        """Sorted predicates p with (s, p, o) stored."""
        lo, hi = self.o_range(o)
        lo, hi = _eq_range(self.osp_s, s, lo, hi)
        return self.osp_p[lo:hi]

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        objs = self.objects_of(s, p)
        if objs.size == 0:
            return False
        pos = int(np.searchsorted(objs, o))
        return pos < objs.size and int(objs[pos]) == o

    def out_degree(self, s: int) -> int:
        lo, hi = self.s_range(s)
        return hi - lo

    def in_degree(self, o: int) -> int:
        lo, hi = self.o_range(o)
        return hi - lo

    def predicate_count(self, p: int) -> int:
        lo, hi = self.p_range_pso(p)
        return hi - lo

    def count_sp(self, s: int, p: int) -> int:
        return self.objects_of(s, p).size

    def count_po(self, p: int, o: int) -> int:
        return self.subjects_of(p, o).size

    def count_so(self, s: int, o: int) -> int:
        return self.predicates_between(s, o).size

    def count(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> int:
        """Exact match count of one bound-position pattern."""
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        if s is not None and p is not None:
            return self.count_sp(s, p)
        if p is not None and o is not None:
            return self.count_po(p, o)
        if s is not None and o is not None:
            return self.count_so(s, o)
        if s is not None:
            return self.out_degree(s)
        if p is not None:
            return self.predicate_count(p)
        if o is not None:
            return self.in_degree(o)
        return self.size

    def out_predicates(self, s: int) -> np.ndarray:
        """Sorted distinct predicates leaving subject *s*."""
        preds, _ = self.out_slice(s)
        return np.unique(preds)

    def distinct_sp_pairs(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(subject, predicate, fan-out) per distinct (s, p) pair.

        One boundary scan over the SPO columns; pairs come out in SPO
        order, so runs of equal subject are contiguous (see
        :func:`run_starts`).  Feeds the characteristic-set synopsis and
        the co-occurrence statistics.
        """
        s_col, p_col = self.spo_s, self.spo_p
        if s_col.size == 0:
            return s_col, p_col, s_col
        boundary = np.ones(s_col.size, dtype=bool)
        boundary[1:] = (s_col[1:] != s_col[:-1]) | (
            p_col[1:] != p_col[:-1]
        )
        idx = np.flatnonzero(boundary)
        fanouts = np.diff(np.append(idx, s_col.size))
        return s_col[idx], p_col[idx], fanouts

    def subject_predicate_groups(self):
        """Yield (predicates, fanouts) lists per distinct subject.

        Groups :meth:`distinct_sp_pairs` by subject (SPO order), giving
        each subject's characteristic set and per-predicate fan-outs in
        one pass — shared by the CSET synopsis and the co-occurrence
        statistics.
        """
        pair_s, pair_p, fanouts = self.distinct_sp_pairs()
        if pair_s.size == 0:
            return
        starts = run_starts(pair_s).tolist()
        preds = pair_p.tolist()
        fans = fanouts.tolist()
        for lo, hi in zip(starts, starts[1:]):
            yield preds[lo:hi], fans[lo:hi]

    # ------------------------------------------------------------------
    # Per-predicate distinct-term statistics
    # ------------------------------------------------------------------

    def predicate_subject_stats(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(distinct subjects of predicate p, triple count per subject)."""
        s_col, _ = self.pred_slice(p)
        return np.unique(s_col, return_counts=True)

    def predicate_object_stats(
        self, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(distinct objects of predicate p, triple count per object)."""
        o_col, _ = self.pred_slice_by_object(p)
        return np.unique(o_col, return_counts=True)

    # ------------------------------------------------------------------
    # Vectorized frontier primitives
    # ------------------------------------------------------------------

    def sp_ranges(
        self, subjects: np.ndarray, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-subject (lo, hi) ranges into the PSO arrays for one predicate.

        The returned bounds are absolute indices into ``pso_s``/``pso_o``;
        ``hi - lo`` is the (s, p) fan-out of each subject.
        """
        plo, phi = self.p_range_pso(p)
        view = self.pso_s[plo:phi]
        lo = plo + np.searchsorted(view, subjects, side="left")
        hi = plo + np.searchsorted(view, subjects, side="right")
        return lo, hi

    def sp_counts(self, subjects: np.ndarray, p: int) -> np.ndarray:
        """(s, p) fan-out for an array of subjects, as int64."""
        lo, hi = self.sp_ranges(subjects, p)
        return hi - lo

    def sp_have_object(
        self, subjects: np.ndarray, p: int, o: int
    ) -> np.ndarray:
        """Boolean mask: does (s, p, o) exist, for an array of subjects."""
        return in_sorted(self.subjects_of(p, o), subjects)

    def sp_objects(
        self, subjects: np.ndarray, p: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated (s, p) object runs for an array of subjects.

        Returns ``(objects, lengths)`` where ``lengths[i]`` is the
        fan-out of ``subjects[i]`` and ``objects`` holds the per-subject
        object runs back to back in input-subject order, each run sorted.
        """
        lo, hi = self.sp_ranges(subjects, p)
        lengths = hi - lo
        return self.pso_o[expand_ranges(lo, lengths)], lengths

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident bytes of the four permutations (12 int64 columns)."""
        return self.size * 3 * 8 * 4
