"""Set-up of the system under test, and the handles the benchmark holds
on it while it runs.

Set-up is the chain a user pays before the first answer: build the
graph, write its snapshot, sample and label training queries, fit,
write the checkpoint, start ``python -m repro serve`` and wait until it
is ready.  Every stage is timed on its own (they become the ``rdf.*``,
``sampling.*``, ``core.*fit_s`` and ``cli.*`` per-layer metrics); their
sum is ``setup_s``.

The served program always runs as a subprocess, started exactly the way
a user starts it.  CPU and memory are read from ``/proc`` for the whole
process tree (server, pool workers, reaped children).
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / "work"

clock = time.perf_counter
Shape = Tuple[str, int]

_TICK = os.sysconf("SC_CLK_TCK")

#: The deployment the benchmark measures: one BLAS thread per process.
#: With the default (one BLAS thread per core in every process), two
#: pool workers on two cores run four spinning BLAS threads, and the
#: same request takes 90 ms on one run and 250 ms on the next.
SINGLE_THREADED_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment of every subprocess: the program importable, and
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(SINGLE_THREADED_BLAS)
    return env


# ----------------------------------------------------------------------
# Process-tree accounting
# ----------------------------------------------------------------------

def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces and parentheses; fields resume after the
    # last ')'.  Index 0 below is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2:].split()


def tree_pids(root: int) -> List[int]:
    """*root* and every live descendant."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(p for p, parent in parents.items() if parent == pid)
    return tree


def tree_cpu_s(root: int) -> float:
    """User + system CPU seconds of the tree, reaped children included."""
    ticks = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime = proc(5) fields 14-17
            ticks += sum(int(v) for v in fields[11:15])
    return ticks / _TICK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` over the live processes of the tree."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Leaving no process behind
# ----------------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans() -> bool:
    """Make this process the parent of whatever its descendants orphan.

    ``repro serve --workers N`` starts pool workers and a
    ``multiprocessing`` resource tracker; when the server exits they are
    re-parented.  As their sub-reaper the benchmark keeps them in its own
    tree (``tree_pids`` finds them) and can wait for them like for any
    child, instead of leaving them to init for a moment after it exits.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _ended(pid: int) -> bool:
    """Reap *pid* if it is a child; True once it runs no more."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        # Not a child (no sub-reaper): gone, or a zombie its parent has
        # yet to collect, is all that can be seen from here.
        fields = _stat_fields(pid)
        return fields is None or fields[0] == "Z"


def end_processes(pids: Sequence[int], timeout: float = 10.0) -> List[int]:
    """SIGKILL *pids* and wait until each has ended; the ones that have
    not after *timeout* seconds."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    left = list(pids)
    deadline = clock() + timeout
    while True:
        left = [pid for pid in left if not _ended(pid)]
        if not left or clock() >= deadline:
            return left
        time.sleep(0.005)


def end_descendants(timeout: float = 10.0) -> List[int]:
    """Last thing a run does: no descendant of this process is left, on
    any path out of it.  Sweeps until the tree is empty (a dying process
    may hand over a child between two looks)."""
    try:
        # This process's own resource tracker (the traced pass builds a
        # SupervisedPool in-process) only exits once told to.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 — private API; the sweep covers it
        pass
    deadline = clock() + timeout
    while True:
        pids = tree_pids(os.getpid())[1:]
        if not pids:
            return []
        left = end_processes(pids, max(deadline - clock(), 0.1))
        if clock() >= deadline:
            return left


# ----------------------------------------------------------------------
# The served program
# ----------------------------------------------------------------------

class Server:
    """``python -m repro serve`` as a subprocess on an ephemeral port."""

    def __init__(
        self, snapshot: Path, checkpoint: Path, workers: int, tmp: Path
    ) -> None:
        started = clock()
        self._log = open(tmp / "serve.stderr", "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--snapshot", str(snapshot),
                "--checkpoint", str(checkpoint),
                "--port", "0", "--workers", str(workers),
            ],
            env=child_env(tmp), cwd=str(ROOT),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            address = self._await_ready(timeout=120.0)
        except BaseException:
            self.stop()
            raise
        self.host, self.port = address
        self.ready_s = clock() - started
        self.peak_rss_mb = 0.0

    def _await_ready(self, timeout: float) -> Tuple[str, int]:
        deadline = clock() + timeout
        stdout = self.process.stdout
        buffer = b""
        while clock() < deadline:
            if self.process.poll() is not None:
                break
            ready, _, _ = select.select([stdout], [], [], 0.2)
            if not ready:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                break
            buffer += chunk
            match = re.search(rb"http://([\d.]+):(\d+)", buffer)
            if match and b"\n" in buffer[match.end():]:
                return match.group(1).decode(), int(match.group(2))
        raise RuntimeError(
            "repro serve did not become ready: "
            + buffer.decode(errors="replace")[-400:]
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def cpu_s(self) -> float:
        return tree_cpu_s(self.process.pid)

    def sample_rss(self) -> float:
        """Track the tree's peak across reloads (a retired worker set
        takes its high-water mark with it)."""
        self.peak_rss_mb = max(
            self.peak_rss_mb, tree_peak_rss_mb(self.process.pid)
        )
        return self.peak_rss_mb

    def stop(self) -> None:
        """SIGTERM, wait, and wait for every process of its tree (pool
        workers, their resource tracker) to have ended as well."""
        if self.process.returncode is None:
            pids = tree_pids(self.process.pid)[1:]
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pids = tree_pids(self.process.pid)[1:]
                self.process.kill()
                self.process.wait()
            # What the server orphaned is this process's child now (see
            # adopt_orphans); one spawned after the look above is left
            # to end_descendants.
            end_processes(pids)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class TrainSpec:
    """What the served model is and how it is trained."""

    model: str  # "s" | "u"
    shapes: Tuple[Shape, ...]
    queries_per_shape: int = 300
    epochs: int = 20
    hidden: Tuple[int, ...] = (128, 128)
    #: fit through ``repro maintain run`` (publishes generation 1 into
    #: a maintenance state directory) instead of the library calls
    via_maintain: bool = False


@dataclass
class System:
    """One completed set-up."""

    store: object
    snapshot: Path
    checkpoint: Path
    tmp: Path
    timings: Dict[str, float] = field(default_factory=dict)
    server: Optional[Server] = None
    #: maintenance state (``via_maintain`` set-ups only)
    state_dir: Optional[Path] = None
    maintain_args: List[str] = field(default_factory=list)
    maintain_startup_s: float = 0.0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def maintain_cli(
    maintain_args: Sequence[str], snapshot: Path, tmp: Path,
    reload_url: Optional[str] = None,
) -> Tuple[dict, float]:
    """One ``repro maintain run --json``; (report, CLI wall seconds)."""
    command = [
        sys.executable, "-m", "repro", "maintain", "run",
        "--snapshot", str(snapshot), *maintain_args, "--json",
    ]
    if reload_url:
        command += ["--reload-url", reload_url]
    started = clock()
    done = subprocess.run(
        command, env=child_env(tmp), cwd=str(ROOT),
        capture_output=True, text=True, timeout=170,
    )
    wall = clock() - started
    if done.returncode != 0:
        raise RuntimeError(
            f"repro maintain run failed ({done.returncode}): "
            + done.stderr[-400:]
        )
    return json.loads(done.stdout), wall


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def set_up(
    triples: int,
    train: TrainSpec,
    seed: int,
    directory: Path,
    workers: Optional[int],
) -> System:
    """Build graph → snapshot → label → fit → checkpoint → serve.

    *workers* None is the library workload: no server, "ready" is a
    fresh process having loaded the snapshot and the checkpoint.
    """
    from repro.bench.harness import build_throughput_store
    from repro.core.framework import LMKG
    from repro.core.lmkg_s import LMKGSConfig
    from repro.core.lmkg_u import LMKGUConfig
    from repro.sampling.workload import generate_workload
    from repro.serve import save_checkpoint

    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / "tmp"
    tmp.mkdir(exist_ok=True)
    timings: Dict[str, float] = {}

    def timed(name: str, fn):
        started = clock()
        value = fn()
        timings[name] = clock() - started
        return value

    store = timed(
        "rdf.store.build_s", lambda: build_throughput_store(triples, seed)
    )
    snapshot = directory / "snapshot"
    timed(
        "rdf.snapshot.save_s",
        lambda: store.save_snapshot(snapshot, record_source=False),
    )
    system = System(store, snapshot, directory / "checkpoint", tmp, timings)
    if train.via_maintain:
        system.state_dir = directory / "state"
        system.maintain_args = [
            "--state-dir", str(system.state_dir),
            "--shapes", *(f"{t}:{s}" for t, s in train.shapes),
            "--queries", str(train.queries_per_shape),
            "--epochs", str(train.epochs),
            "--hidden", *(str(h) for h in train.hidden),
            "--seed", str(seed),
        ]
        report, wall = maintain_cli(system.maintain_args, snapshot, tmp)
        timings["cli.maintain_run_s"] = wall
        system.maintain_startup_s = wall - report["seconds"]
        system.snapshot = Path(report["snapshot_dir"])
        system.checkpoint = Path(report["checkpoint_dir"])
    elif train.model == "s":
        records = timed(
            "sampling.generate_workload_s",
            lambda: [
                record
                for i, (topology, size) in enumerate(train.shapes)
                for record in generate_workload(
                    store, topology, size,
                    num_queries=train.queries_per_shape,
                    seed=seed + 37 * i,
                ).records
            ],
        )
        framework = LMKG(
            store, model_type="supervised", grouping="size",
            lmkgs_config=LMKGSConfig(
                hidden_sizes=train.hidden, epochs=train.epochs, seed=seed
            ),
            seed=seed,
        )
        timed(
            "core.lmkgs.fit_s",
            lambda: framework.fit(shapes=train.shapes, workload=records),
        )
    else:
        framework = LMKG(
            store, model_type="unsupervised",
            lmkgu_config=LMKGUConfig(
                embed_dim=16, hidden_sizes=train.hidden,
                epochs=train.epochs,
                training_samples=train.queries_per_shape,
                particles=64, seed=seed,
            ),
            seed=seed,
        )
        timed(
            "core.lmkgu.fit_s", lambda: framework.fit(shapes=train.shapes)
        )
    if not train.via_maintain:
        timed(
            "serve.artifacts.save_s",
            lambda: save_checkpoint(framework, system.checkpoint),
        )
    if workers is not None:
        system.server = Server(
            system.snapshot, system.checkpoint, workers, tmp
        )
        timings["cli.serve_ready_s"] = system.server.ready_s
    else:
        timed("bench.library_ready_s", lambda: library_child(system, []))
    return system


def library_child(system: System, arguments: Sequence[str],
                  timeout: float = 170.0) -> None:
    """Run ``lib_child.py`` on the system's snapshot and checkpoint."""
    subprocess.run(
        [
            sys.executable, str(HERE / "lib_child.py"),
            "--snapshot", str(system.snapshot),
            "--checkpoint", str(system.checkpoint), *arguments,
        ],
        env=child_env(system.tmp), cwd=str(ROOT), check=True,
        timeout=timeout,
    )


def fresh_workdir(label: str) -> Path:
    path = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
