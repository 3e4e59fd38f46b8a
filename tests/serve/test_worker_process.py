"""A pool worker is a plain ``python -m repro.serve.worker`` process.

Its process tree is the pool's workers and nothing else (no
``multiprocessing`` resource tracker), it imports the estimation path
only and nothing more once it answers, and it does not outlive the
process that started it.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve.supervisor import SupervisedPool

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads process trees from /proc",
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: modules a worker must never load: the serving layers above the pool,
#: the CLI, and the replay and maintenance subsystems.
FORBIDDEN = (
    "repro.cli",
    "repro.serve.http",
    "repro.serve.app",
    "repro.serve.scheduler",
    "repro.serve.supervisor",
    "repro.replay",
    "repro.maintain",
)


def _gone(pid):
    """True once *pid* runs no more (a zombie counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def _live_worker_pids(pool):
    return {w.process.pid for w in pool._workers if w.is_alive()}


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.02)


def test_a_pools_process_tree_is_its_workers(
    snapshot_dir, checkpoint_dir, star_queries, child_pids
):
    before = child_pids()
    with SupervisedPool(
        snapshot_dir, checkpoint_dir, workers=2, backoff_base=0.05
    ) as pool:

        def tree_is_the_workers():
            workers = _live_worker_pids(pool)
            assert len(workers) == 2
            assert child_pids() - before == workers
            for pid in workers:
                assert child_pids(pid) == set()
            return workers

        started = tree_is_the_workers()

        pool.reload(checkpoint_dir)
        reloaded = tree_is_the_workers()
        assert reloaded == started  # a reload starts no process

        victim = pool._workers[0].process.pid
        os.kill(victim, signal.SIGKILL)
        _wait_until(
            lambda: pool.stats()["restarts_used"] == 1
            and all(w["state"] == "ready" for w in pool.stats()["workers"])
        )
        restarted = tree_is_the_workers()
        assert victim not in restarted
        assert len(restarted & reloaded) == 1
        assert np.isfinite(pool.estimate_batch(star_queries[:4])).all()
    assert child_pids() - before == set()


_ATTACH_AND_ANSWER = r"""
import json, sys, threading
from multiprocessing import Pipe

from repro.serve import worker

snapshot, checkpoint, request = sys.argv[1:]
ours, theirs = Pipe()
thread = threading.Thread(
    target=worker.serve, args=(theirs, worker.FaultInjector())
)
thread.start()
ours.send(("load", snapshot, checkpoint))
handshake = ours.recv()
ours.send(("flip",))


def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")


at_ready = loaded()
with open(request, "rb") as handle:
    ours.send_bytes(handle.read())  # unpickled by the worker, not here
offset, values, error = ours.recv()
answered = loaded()
ours.send(("stop",))
thread.join()
print(json.dumps({
    "handshake": list(handshake),
    "at_ready": at_ready,
    "answered": answered,
    "values": values,
    "error": error,
}))
"""


def test_a_worker_imports_the_estimation_path_only(
    snapshot_dir, checkpoint_dir, service, star_queries, tmp_path
):
    queries = star_queries[:8]
    request = tmp_path / "request.pickle"
    request.write_bytes(pickle.dumps(("estimate", 0, queries)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _ATTACH_AND_ANSWER,
            str(snapshot_dir),
            str(checkpoint_dir),
            str(request),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["handshake"] == ["loaded"]
    loaded = set(report["at_ready"])
    assert {"repro.core.framework", "repro.rdf.store"} <= loaded
    assert {m for m in loaded if m.startswith("repro.serve")} == {
        "repro.serve",
        "repro.serve.faults",
        "repro.serve.worker",
    }
    for name in FORBIDDEN:
        assert not any(
            m == name or m.startswith(name + ".") for m in loaded
        ), name
    # The first batch loads nothing: no import cost moves into the
    # first read after a (re)start.
    assert report["answered"] == report["at_ready"]
    assert report["error"] is None
    np.testing.assert_allclose(
        report["values"], service.framework.estimate_batch(queries),
        rtol=1e-6,
    )


_POOL_THEN_WAIT = r"""
import json, sys, time

sys.path.insert(0, sys.argv[1])
from repro.serve import SupervisedPool

pool = SupervisedPool(sys.argv[2], sys.argv[3], workers=2)
print(json.dumps([w.process.pid for w in pool._workers]), flush=True)
time.sleep(600)
"""


def test_workers_do_not_outlive_their_parent(
    snapshot_dir, checkpoint_dir, child_pids, tmp_path
):
    """The parent finds ``repro`` only through ``sys.path.insert``, as
    ``benchmarks/e2e/run.py`` does: its workers still start, and they
    exit on EOF of their pipes once the parent is SIGKILLed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    parent = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _POOL_THEN_WAIT,
            str(SRC),
            str(snapshot_dir),
            str(checkpoint_dir),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    try:
        workers = json.loads(parent.stdout.readline())
        assert len(workers) == 2
        assert child_pids(parent.pid) == set(workers)
    finally:
        parent.kill()
        parent.wait(10)
    _wait_until(lambda: all(_gone(pid) for pid in workers), timeout=5.0)
