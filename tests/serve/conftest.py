"""Shared serving fixtures: one tmpdir snapshot + fitted service."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.serve import EstimatorService, FitDefaults, ServingApp

REPO_ROOT = Path(__file__).resolve().parents[2]

#: small but non-trivial startup-fit: seconds, not minutes.
FIT = FitDefaults(queries_per_shape=100, epochs=4, hidden_sizes=(32, 32))


@pytest.fixture(scope="session")
def fit_defaults():
    return FIT


@pytest.fixture(scope="session")
def snapshot_dir(tmp_path_factory):
    from repro.datasets import load_dataset

    store = load_dataset("lubm", scale=0.25, seed=1)
    directory = tmp_path_factory.mktemp("serve") / "snapshot"
    store.save_snapshot(directory)
    return directory


@pytest.fixture(scope="session")
def service(snapshot_dir):
    return EstimatorService.from_snapshot(snapshot_dir, fit_defaults=FIT)


@pytest.fixture(scope="session")
def checkpoint_dir(service, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve-ckpt") / "checkpoint"
    service.framework.save(directory)
    return directory


@pytest.fixture(scope="session")
def damage_checkpoint():
    """``damage_checkpoint(path, mode)``:
    :func:`~repro.serve.faults.corrupt_checkpoint`, plus two shapes of
    checkpoint no chaos mode writes:

    - ``parent-format``: the layout the previous release saved — a
      ``manifest.json`` beside a schema-2 ``artifact.json``;
    - ``escaping-file``: the first model entry names an absolute path
      outside the checkpoint, where an intact copy of the model (CRC
      and all) waits.
    """
    return _damage_checkpoint


def _damage_checkpoint(path, mode):
    from repro.core.framework import file_crc32
    from repro.serve.faults import corrupt_checkpoint

    record_path = path / "artifact.json"
    record = json.loads(record_path.read_text())
    if mode == "parent-format":
        models = [
            {k: v for k, v in entry.items() if k != "crc32"}
            for entry in record["models"]
        ]
        manifest = {
            "format": "repro-lmkg-framework",
            "version": 1,
            "models": models,
            **{
                key: record[key]
                for key in ("model_type", "seed", "grouping", "store")
            },
        }
        (path / "manifest.json").write_text(json.dumps(manifest))
        files = ["manifest.json"] + [entry["file"] for entry in models]
        record = {
            "schema_version": 2,
            "file_checksums": {
                name: file_crc32(path / name) for name in files
            },
            "trained_shapes": record["trained_shapes"],
            "store": record["store"],
        }
    elif mode == "escaping-file":
        entry = record["models"][0]
        outside = path.parent / f"{path.name}-outside.npz"
        outside.write_bytes((path / entry["file"]).read_bytes())
        entry["file"] = str(outside)
    else:
        return corrupt_checkpoint(path, mode)
    record_path.write_text(json.dumps(record))
    return record_path


@pytest.fixture(scope="session")
def star_queries(service):
    """Parsed star queries drawn from the served graph."""
    from repro.sampling import generate_workload

    workload = generate_workload(service.store, "star", 2, 30, seed=17)
    return [record.query for record in workload]


@pytest.fixture(scope="session")
def child_pids():
    """``child_pids(pid=this process)`` -> the pids of *pid*'s child
    processes, zombies included, read from ``/proc`` (an empty set
    where there is none)."""
    return _child_pids


def _child_pids(pid=None):
    found = set()
    tasks = Path(f"/proc/{pid or os.getpid()}/task")
    for task in tasks.iterdir() if tasks.is_dir() else ():
        try:
            text = (task / "children").read_text()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        found.update(int(child) for child in text.split())
    return found


@pytest.fixture()
def gated_app(snapshot_dir, checkpoint_dir):
    """``gated_app(first_only=..., **policy)`` -> ``(app, gate, entered)``:
    a started ServingApp whose model path sets *entered* and then
    blocks until *gate* is set — on every batch, or on the first only.
    *policy* overrides scheduler attributes (``max_batch``,
    ``max_queue``).  Released and closed at
    teardown."""
    built = []

    def build(*, first_only, **policy):
        gate, entered = threading.Event(), threading.Event()
        app = ServingApp(snapshot_dir, checkpoint_dir, port=0)
        built.append((app, gate))
        for name, value in policy.items():
            setattr(app.scheduler, name, value)
        estimate_batch = app.service.framework.estimate_batch

        def gated(queries):
            if not (first_only and entered.is_set()):
                entered.set()
                assert gate.wait(30.0)
            return estimate_batch(queries)

        app.backend.swap_primary(gated)
        return app.start(), gate, entered

    yield build
    for app, gate in built:
        gate.set()
        app.close()


@pytest.fixture()
def cli_serve(snapshot_dir):
    """``cli_serve(*arguments)`` -> ``(process, url)``: a real
    ``python -m repro serve`` on the session snapshot and an ephemeral
    port, returned once it printed its ready line.  Whatever still runs
    at teardown is killed."""
    started = []

    def start(*arguments):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
            + ["--snapshot", str(snapshot_dir), *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        started.append(process)
        for line in process.stdout:
            if line.startswith("serving") and "http://" in line:
                return process, "http://" + line.split("http://")[1].split()[0]
        raise AssertionError("server never reported its address")

    yield start
    for process in started:
        if process.poll() is None:
            process.kill()
            process.wait(10)
