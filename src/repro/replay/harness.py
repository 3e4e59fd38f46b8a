"""Chaos hooks over a live in-process serving stack, for replay runs.

:class:`ReplayHarness` is a :class:`~repro.serve.app.ServingApp` — the
stack is built, addressed and torn down there — running inside the
current process, so a chaos timeline can reach the parts an external
client cannot: worker PIDs to SIGKILL, the live store copy to mutate,
the maintenance runner to race against traffic.

It is also the :class:`~repro.replay.timeline.TimelineContext`: the
``kill worker`` / ``reload`` / ``mutate`` / ``maintain`` / ``corrupt``
actions all dispatch here.  ``repro replay run`` builds one; tests
build smaller ones.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
from http.client import HTTPConnection
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.rdf.store import TripleStore
from repro.serve import ServingApp
from repro.serve.faults import corrupt_checkpoint


class HarnessError(RuntimeError):
    """The harness cannot perform a requested action."""


def vocab_preserving_delta(
    store: TripleStore, count: int, rng: np.random.Generator
) -> np.ndarray:
    """*count* novel triples recombined from the existing vocabulary.

    Node/predicate counts and the dictionary stay fixed, which keeps
    the maintenance planner on the incremental path (new vocabulary
    correctly forces a full rebuild — a different scenario).
    """
    rows = store.backend.rows()
    subjects = np.unique(rows[:, 0])
    predicates = np.unique(rows[:, 1])
    objects = np.unique(rows[:, 2])
    target = max(int(count), 1)
    delta = np.empty((0, 3), dtype=np.int64)
    while delta.shape[0] < target:
        candidates = np.stack(
            [
                rng.choice(subjects, 4 * target),
                rng.choice(predicates, 4 * target),
                rng.choice(objects, 4 * target),
            ],
            axis=1,
        ).astype(np.int64)
        candidates = np.unique(candidates, axis=0)
        candidates = candidates[~store.backend.isin_rows(candidates)]
        delta = np.unique(np.concatenate([delta, candidates]), axis=0)
    return delta[:target]


class ReplayHarness(ServingApp):
    """A live in-process server plus every chaos hook the DSL needs.

    Args:
        snapshot_dir: store snapshot to serve (and to seed the mutable
            live-store copy the maintenance runner works on).
        checkpoint_dir: trained checkpoint; None = startup-fit,
            checkpointed to a scratch dir (a corrupt-checkpoint storm
            needs an artifact on disk to damage).
        maintain_state_dir: maintenance state dir; None = scratch.
        maintain_options: kwargs forwarded to
            :class:`~repro.maintain.runner.MaintenanceRunner` (shapes,
            queries_per_shape, epochs, finetune_epochs, hidden_sizes,
            seed).
        seed: seeds the ``mutate`` deltas.
        **serving: every other :class:`ServingApp` argument (``workers``
            > 1 is required for ``kill worker``); the port defaults to
            an ephemeral one.
    """

    def __init__(
        self,
        snapshot_dir,
        checkpoint_dir=None,
        *,
        maintain_state_dir=None,
        maintain_options: Optional[dict] = None,
        seed: int = 0,
        **serving,
    ) -> None:
        self._tempdir = tempfile.TemporaryDirectory(
            prefix="repro-replay-"
        )
        self._rng = np.random.default_rng(seed)
        self._corrupt_next: Optional[str] = None
        self._mutable_store: Optional[TripleStore] = None
        self._runner = None
        self._maintain_options = dict(maintain_options or {})
        self.maintain_state_dir = str(
            maintain_state_dir
            if maintain_state_dir is not None
            else Path(self._tempdir.name) / "maintain-state"
        )
        if checkpoint_dir is None:
            serving["save_checkpoint"] = (
                Path(self._tempdir.name) / "checkpoint"
            )
        serving.setdefault("port", 0)
        # A failed build runs close(), which also removes the scratch.
        super().__init__(snapshot_dir, checkpoint_dir, **serving)
        self.start()

    # ------------------------------------------------------------------
    # TimelineContext
    # ------------------------------------------------------------------

    def kill_worker(self, index: Optional[int] = None) -> str:
        """SIGKILL a supervised worker; the supervisor must recover."""
        if self.pool is None:
            raise HarnessError(
                "kill worker needs a supervised pool (workers > 1)"
            )
        workers = [w for w in self.pool._workers if w.is_alive()]
        if not workers:
            raise HarnessError("no live worker to kill")
        victim = workers[index if index is not None else 0]
        pid = victim.process.pid
        os.kill(pid, signal.SIGKILL)
        return f"killed worker pid {pid}"

    def _post(self, path: str, payload: dict) -> Tuple[int, dict]:
        conn = HTTPConnection(self.host, self.port, timeout=60.0)
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            try:
                body = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                body = {}
            return response.status, body
        finally:
            conn.close()

    def reload(
        self,
        checkpoint: Optional[str] = None,
        snapshot: Optional[str] = None,
    ) -> str:
        payload: dict = {}
        if checkpoint:
            payload["checkpoint"] = checkpoint
        if snapshot:
            payload["snapshot"] = snapshot
        status, body = self._post("/admin/reload", payload)
        if status != 200:
            raise HarnessError(
                f"reload answered {status}: {body.get('error')}"
            )
        return (
            f"reloaded generation {body.get('generation')} "
            f"from {body.get('checkpoint')}"
        )

    @property
    def mutable_store(self) -> TripleStore:
        """The live-store copy maintenance sees (lazy snapshot load)."""
        if self._mutable_store is None:
            self._mutable_store = TripleStore.load_snapshot(
                self.snapshot_dir, verify=False
            )
        return self._mutable_store

    def mutate(self, count: int) -> str:
        store = self.mutable_store
        delta = vocab_preserving_delta(store, count, self._rng)
        added = store.add_all(delta)
        return f"added {added} vocabulary-preserving triples"

    def _maintenance_runner(self):
        if self._runner is None:
            from repro.maintain import MaintenanceRunner

            options = dict(self._maintain_options)
            options.setdefault("shapes", (("star", 2), ("chain", 2)))
            options.setdefault("queries_per_shape", 60)
            options.setdefault("epochs", 4)
            options.setdefault("finetune_epochs", 2)
            options.setdefault("hidden_sizes", (32, 32))
            self._runner = MaintenanceRunner(
                self.mutable_store,
                self.maintain_state_dir,
                **options,
            )
        return self._runner

    def maintain(self, full: bool = False) -> str:
        """Run the maintenance cycle and hand the generation to the
        live server — through the armed corruption, if any."""
        runner = self._maintenance_runner()
        report = runner.run(full=full)
        if report.action == "noop":
            return "maintain: noop (materialization is current)"
        detail = (
            f"maintain: {report.action} -> generation {report.run}"
        )
        mode = self._corrupt_next
        if mode is not None:
            self._corrupt_next = None
            corrupt_checkpoint(report.checkpoint_dir, mode)
            status, body = self._post(
                "/admin/reload",
                {
                    "checkpoint": report.checkpoint_dir,
                    "snapshot": report.snapshot_dir,
                },
            )
            if status != 409:
                raise HarnessError(
                    f"corrupted checkpoint was not rejected: "
                    f"{status} {body.get('error')}"
                )
            return (
                detail
                + f", corrupted ({mode}), reload rejected 409 "
                f"({body.get('reason')}) — previous generation "
                "keeps serving"
            )
        self.reload(report.checkpoint_dir, report.snapshot_dir)
        return detail + ", reloaded"

    def corrupt_next_checkpoint(self, mode: str) -> str:
        self._corrupt_next = mode
        return f"armed: next published checkpoint gets {mode}"

    def corrupt_checkpoint(self, path: str, mode: str) -> str:
        """Damage an explicit checkpoint now and prove the gate holds."""
        corrupt_checkpoint(path, mode)
        status, body = self._post(
            "/admin/reload", {"checkpoint": path}
        )
        if status != 409:
            raise HarnessError(
                f"corrupted checkpoint was not rejected: "
                f"{status} {body.get('error')}"
            )
        return (
            f"corrupted {path} ({mode}), reload rejected 409 "
            f"({body.get('reason')})"
        )

    def close(self) -> bool:
        drained = super().close()
        self._tempdir.cleanup()
        return drained
