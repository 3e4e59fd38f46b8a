"""The estimation worker of :class:`~repro.serve.supervisor.SupervisedPool`.

Each pool worker is a fresh interpreter started as::

    python -m repro.serve.worker FD FAULTS

*FD* is this process's end of the pool's duplex pipe (one end of a
socketpair, inherited through ``subprocess``'s ``pass_fds``), *FAULTS*
the worker's :class:`~repro.serve.faults.FaultSpec` as JSON.  The pool
gives the process its environment: the BLAS thread budget, and the
directory that holds the parent's ``repro`` package on ``PYTHONPATH``.

A worker starts holding no (snapshot, checkpoint) pair.  The pool sends
``("load", snapshot_dir, checkpoint_dir)``, and the worker loads that
pair beside the one it serves and replies ``("loaded",)`` or
``("load-error", traceback)``; ``("flip",)`` then makes the loaded pair
the serving pair and drops the old one.  Start-up and hot reload are
the same two messages, so a worker never answers from a pair that was
loaded but not flipped: the next ``load`` replaces such a pair.

The module imports the estimation path only — :mod:`repro.core.framework`,
:mod:`repro.rdf.store` and :mod:`repro.serve.faults` with what they
import — never the HTTP, app or scheduler layers, the supervisor or the
CLI: a worker holds what answering a batch needs and nothing else.
``repro.serve`` exports its names lazily so that importing this module
does not load the rest of the package.  The worker exits on ``stop``
and on EOF of its pipe, so it never outlives the pool's process.
"""

from __future__ import annotations

import sys
import traceback
from multiprocessing.connection import Connection

from repro.core.framework import LMKG, EstimationError
from repro.rdf.store import TripleStore
from repro.serve.faults import FaultInjector, FaultSpec


def _load(snapshot_dir: str, checkpoint_dir: str) -> LMKG:
    """Attach like the labeling pool: ``verify=False`` /
    ``load_dictionary=False`` because the parent verified the snapshot
    and parsing happens parent-side."""
    store = TripleStore.load_snapshot(
        snapshot_dir,
        verify=False,
        read_only=True,
        load_dictionary=False,
    )
    return LMKG.load(checkpoint_dir, store)


def serve(conn: Connection, injector: FaultInjector) -> None:
    """Answer load, flip and (offset, queries) requests until ``stop``
    or EOF.

    A load error is a reply, not an exit, so the supervisor tells a
    broken checkpoint from a crashed process, and the worker keeps
    serving the pair it had.
    """
    serving = loaded = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "flip":
            serving, loaded = loaded, None
            continue
        if kind == "load":
            loaded = None  # an unflipped pair never outlives the next load
            try:
                loaded = _load(*message[1:])
                reply = ("loaded",)
            except Exception:
                reply = ("load-error", traceback.format_exc())
        else:
            _, offset, queries = message
            try:
                injector.on_request(queries)  # may exit/hang/raise
                values = serving.estimate_batch(queries)
                reply = (offset, values.tolist(), None)
            except EstimationError as exc:
                reply = (offset, None, ("estimation", str(exc)))
            except BaseException:
                reply = (offset, None, ("error", traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:
            return


def main() -> None:
    fd, faults = sys.argv[1:]
    injector = FaultInjector(FaultSpec.from_json(faults))
    conn = Connection(int(fd))
    try:
        serve(conn, injector)
    finally:
        conn.close()


if __name__ == "__main__":
    main()
