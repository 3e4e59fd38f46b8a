"""Multiprocess query labeling over one shared memory-mapped snapshot.

Training-set generation labels tens of thousands of star/chain queries
with their exact cardinality.  The vectorized counters
(:mod:`repro.rdf.fastcount`) removed the per-triple Python work; this
module removes the single-core ceiling by splitting a query batch
across a ``multiprocessing`` pool.

The design follows directly from the snapshot subsystem:

- **No store pickling, no per-worker rebuild.**  Each worker attaches to
  the same on-disk snapshot via :meth:`TripleStore.load_snapshot` —
  twelve ``np.load(..., mmap_mode="r")`` calls, so the permutation
  columns are shared read-only pages, resident **once** across the whole
  pool.  Only the queries and their int64 counts cross process
  boundaries.
- **Workers are read-only.**  Snapshots are attached with
  ``read_only=True``: a worker that mutated its copy would silently
  diverge from its siblings, so mutation raises
  :class:`~repro.rdf.store.ReadOnlyStoreError` instead (see
  :func:`label_queries` for the parent-side guard).
- **Chunked scheduling.**  Query costs are skewed (a hub-centred star is
  orders of magnitude more work than a leaf chain), so the batch is cut
  into many more chunks than workers and chunks are handed out
  dynamically; a worker stuck on an expensive chunk does not idle the
  rest of the pool.
- **Deterministic ordering.**  Chunks carry their offset and results are
  reassembled by it, so the output is byte-identical to labeling the
  batch serially with :func:`~repro.rdf.fastcount.count_query`,
  regardless of worker count or completion order.
- **Loud failures.**  A query that raises inside a worker surfaces as a
  :class:`ParallelLabelingError` carrying the worker-side traceback —
  never a silently shorter or reordered result list.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import tempfile
import traceback
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.rdf.fastcount import count_query
from repro.rdf.pattern import QueryPattern
from repro.rdf.store import TripleStore

#: Chunks handed out per worker (dynamic scheduling granularity): enough
#: that one expensive chunk cannot stall the pool for long, few enough
#: that per-chunk IPC stays negligible.
CHUNKS_PER_WORKER = 4

#: Process-global snapshot handle, populated once per worker by
#: :func:`_init_worker` so tasks carry only (offset, queries).
_WORKER_STORE: Optional[TripleStore] = None

#: Traceback of a failed worker attach, reported by the first chunk the
#: worker receives.  An initializer that *raised* instead would make
#: ``multiprocessing.Pool`` respawn the crashing worker forever — the
#: pool would hang rather than fail loudly.
_WORKER_INIT_ERROR: Optional[str] = None


class ParallelLabelingError(RuntimeError):
    """A labeling worker failed; carries the worker-side traceback."""


def available_cpus() -> int:
    """CPUs actually usable by this process.

    ``os.cpu_count()`` reports the host's logical CPUs even when the
    process is confined to fewer by cgroups or CPU affinity (containers,
    CI runners); the affinity mask reflects the real budget where the
    platform exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count used for ``workers=None``: one per available core."""
    return available_cpus()


def resolve_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the labeling pool starts workers with.

    ``fork`` where available (Linux): workers then inherit the imported
    modules and attach to the snapshot in milliseconds.  Elsewhere
    ``spawn`` is used; everything crossing the pipe (snapshot path,
    queries, counts) is plain picklable data either way.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def chunk_queries(
    queries: Sequence[QueryPattern], workers: int, chunk_size: Optional[int]
) -> List[tuple]:
    """Split *queries* into ``(offset, slice)`` tasks.

    With the default ``chunk_size=None`` the batch is cut into about
    :data:`CHUNKS_PER_WORKER` chunks per worker so dynamic scheduling
    can rebalance skewed query costs.
    """
    total = len(queries)
    if chunk_size is None:
        chunk_size = max(1, math.ceil(total / (workers * CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, list(queries[start:start + chunk_size]))
        for start in range(0, total, chunk_size)
    ]


def _init_worker(snapshot_dir: str) -> None:
    """Pool initializer: attach this process to the shared snapshot.

    ``verify=False`` skips the CRC32 pass — the parent verified (or
    just wrote) the snapshot before starting the pool, and re-hashing
    it N times defeats the O(1) attach.  ``load_dictionary=False``
    skips re-parsing the term dictionaries, which counting never
    touches and which, unlike the memmapped columns, would be a
    private per-worker copy.  ``read_only=True`` turns any accidental
    worker mutation into a loud
    :class:`~repro.rdf.store.ReadOnlyStoreError`.

    A failed attach must not raise here: ``multiprocessing.Pool``
    respawns a worker whose initializer dies, which loops forever
    instead of surfacing the error.  The traceback is stashed and
    reported by the first chunk instead.
    """
    global _WORKER_STORE, _WORKER_INIT_ERROR
    try:
        _WORKER_STORE = TripleStore.load_snapshot(
            snapshot_dir,
            verify=False,
            read_only=True,
            load_dictionary=False,
        )
    except BaseException:
        _WORKER_STORE = None
        _WORKER_INIT_ERROR = traceback.format_exc()


def _label_chunk(task: tuple) -> tuple:
    """Label one ``(offset, queries)`` chunk against the worker snapshot.

    Returns ``(offset, counts, None)`` on success and ``(offset, None,
    traceback)`` on failure: exceptions are shipped as data because a
    raised exception type that fails to unpickle in the parent would
    otherwise hang or obscure the real error.
    """
    offset, queries = task
    store = _WORKER_STORE
    try:
        if store is None:
            raise RuntimeError(
                "worker failed to attach to the shared snapshot:\n"
                f"{_WORKER_INIT_ERROR or '(no attach was attempted)'}"
            )
        return (offset, [count_query(store, q) for q in queries], None)
    except BaseException:
        return (offset, None, traceback.format_exc())


def label_serial(
    store: TripleStore, queries: Sequence[QueryPattern]
) -> List[int]:
    """The serial reference path: ``count_query`` in input order."""
    return [count_query(store, q) for q in queries]


def label_queries(
    queries: Sequence[QueryPattern],
    store: Optional[TripleStore] = None,
    snapshot_dir: Union[str, Path, None] = None,
    workers: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[int]:
    """Exact cardinalities of *queries*, split across worker processes.

    Exactly one data source is required: an in-memory *store*, an
    on-disk *snapshot_dir*, or both (the directory then takes priority
    as the shared image, but only while it is current — see below).
    A *snapshot_dir* given without a store is loaded once, checksum-
    verified, in the parent; workers attach with ``verify=False``
    because some parent-side process has always either just written or
    just verified the files they map.

    ``workers=1`` (the default) labels serially in-process;
    ``workers=None`` uses one worker per core.  The result is always the
    counts of *queries* in input order, identical to
    :func:`label_serial`.

    Guard against demoted parents: a store that was loaded from (or
    saved to) a snapshot but has since been **mutated** no longer
    matches the files on disk
    (:attr:`~repro.rdf.store.TripleStore.snapshot_source` returns None).
    In that case the current in-memory state is re-snapshotted to a
    temporary directory for the pool instead of attaching workers to the
    stale image — parallel labeling answers against what the caller
    sees, never against what used to be on disk.

    Raises :class:`ParallelLabelingError` when a worker fails, with the
    worker-side traceback in the message.
    """
    if store is None and snapshot_dir is None:
        raise ValueError("label_queries needs a store or a snapshot_dir")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if store is None:
        # Verified (CRC32) parent-side attach: workers skip the check,
        # so this is the one place corruption gets caught — labeling a
        # training set against bit-rotted columns must raise
        # SnapshotError here, not return wrong cardinalities.
        store = TripleStore.load_snapshot(snapshot_dir)
    queries = list(queries)
    # Serial fast paths: no pool to pay for.
    if workers == 1 or len(queries) <= 1:
        return label_serial(store, queries)

    if snapshot_dir is not None and store.snapshot_source != Path(
        snapshot_dir
    ):
        # The directory does not (or no longer does) mirror the store
        # the caller handed us; trust the in-memory state.
        snapshot_dir = None
    if snapshot_dir is None:
        # Reuse the store's own still-current snapshot when it has one.
        snapshot_dir = store.snapshot_source

    if snapshot_dir is not None:
        return _label_pooled(
            Path(snapshot_dir), queries, workers, chunk_size
        )
    with tempfile.TemporaryDirectory(prefix="repro-label-") as tmp:
        shared = Path(tmp) / "snapshot"
        # record_source=False: this directory dies with the pool; it
        # must not linger as the store's supposed on-disk image or the
        # next pooled call would attach workers to a deleted path.
        store.save_snapshot(shared, record_source=False)
        return _label_pooled(shared, queries, workers, chunk_size)


def _label_pooled(
    snapshot_dir: Path,
    queries: List[QueryPattern],
    workers: int,
    chunk_size: Optional[int],
) -> List[int]:
    """Run the chunked pool and reassemble counts in input order."""
    tasks = chunk_queries(queries, workers, chunk_size)
    # Never hold more processes than there are chunks of work.
    workers = min(workers, len(tasks))
    counts: List[Optional[int]] = [None] * len(queries)
    with resolve_context().Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(str(snapshot_dir),),
    ) as pool:
        for offset, chunk_counts, error in pool.imap_unordered(
            _label_chunk, tasks
        ):
            if error is not None:
                raise ParallelLabelingError(
                    f"labeling worker failed on chunk at offset {offset}:"
                    f"\n{error}"
                )
            counts[offset:offset + len(chunk_counts)] = chunk_counts
    return counts  # type: ignore[return-value]
