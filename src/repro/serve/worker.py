"""The estimation worker of :class:`~repro.serve.supervisor.SupervisedPool`.

Each pool worker is a fresh interpreter started as::

    python -m repro.serve.worker FD WORKER_ID SNAPSHOT CHECKPOINT FAULTS

*FD* is this process's end of the pool's duplex pipe (one end of a
socketpair, inherited through ``subprocess``'s ``pass_fds``), *FAULTS*
the worker's :class:`~repro.serve.faults.FaultSpec` as JSON.  The pool
gives the process its environment: the BLAS thread budget, and the
directory that holds the parent's ``repro`` package on ``PYTHONPATH``.

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

from repro.serve.faults import FaultInjector, FaultSpec


def serve(
    worker_id: int,
    snapshot_dir: str,
    checkpoint_dir: str,
    conn: Connection,
    injector: FaultInjector,
) -> None:
    """Attach, handshake, then answer (offset, queries) requests until
    ``stop`` or EOF.

    Attach mirrors the labeling pool: ``verify=False`` /
    ``load_dictionary=False`` because the parent verified the snapshot
    and parsing happens parent-side.  The handshake (``("ready", ...)``
    or ``("init-error", traceback)``) lets the supervisor distinguish a
    broken checkpoint from a crashed process.
    """
    try:
        from repro.core.framework import LMKG, EstimationError
        from repro.rdf.store import TripleStore

        store = TripleStore.load_snapshot(
            snapshot_dir,
            verify=False,
            read_only=True,
            load_dictionary=False,
        )
        framework = LMKG.load(checkpoint_dir, store)
    except BaseException:
        try:
            conn.send(("init-error", traceback.format_exc()))
        except OSError:
            pass
        return
    conn.send(("ready", worker_id))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message[0] == "stop":
            return
        _, offset, queries = message
        try:
            injector.on_request(queries)  # may exit/hang/raise
            values = framework.estimate_batch(queries)
            payload = (offset, values.tolist(), None)
        except EstimationError as exc:
            payload = (offset, None, ("estimation", str(exc)))
        except BaseException:
            payload = (offset, None, ("error", traceback.format_exc()))
        try:
            conn.send(payload)
        except OSError:
            return


def main() -> None:
    fd, worker_id, snapshot_dir, checkpoint_dir, faults = sys.argv[1:]
    injector = FaultInjector(FaultSpec.from_json(faults))
    conn = Connection(int(fd))
    try:
        serve(int(worker_id), snapshot_dir, checkpoint_dir, conn, injector)
    finally:
        conn.close()


if __name__ == "__main__":
    main()
