"""The maintenance orchestrator behind ``repro maintain run/status``.

One :class:`MaintenanceRunner` owns a **state directory** — the
estimator's incremental materialization, in dbt's on-disk shape::

    state_dir/
      watermark.json            last materialization's high-water mark
      workload/<shape>.tsv      labelled training queries per shape
      checkpoints/gen-NNNN/     versioned framework checkpoints
                                (model_*.npz + artifact.json +
                                watermark.json)
      snapshots/gen-NNNN/       store snapshot each generation was
                                materialized against (doubles as the
                                delta-diff base for the next run)

``run()`` is the dbt-style materialization: the **first** run (no
watermark) generates and labels the full workload, fits every model,
and publishes generation 1; every **later** run plans the delta above
the watermark (:mod:`repro.maintain.planner`), relabels only the
affected queries (:mod:`repro.maintain.relabel`), fine-tunes only the
touched models from the previous generation's float64 masters
(:mod:`repro.maintain.finetune`), and publishes the next generation —
checkpoint, fresh snapshot, and watermark, saved in that order so a
crash leaves the previous generation intact and discoverable.  With a
``reload_url`` the runner then POSTs the new generation's paths to the
serving layer's ``/admin/reload``, which loads it into the live pool
workers beside the pair they serve and flips them between batches.
"""

from __future__ import annotations

import json
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.framework import LMKG
from repro.core.grouping import SizeGrouping
from repro.core.lmkg_s import LMKGSConfig
from repro.maintain.finetune import (
    DEFAULT_FINETUNE_EPOCHS,
    FinetuneReport,
    finetune_models,
)
from repro.maintain.freshness import FreshnessStatus, check_freshness
from repro.maintain.planner import (
    MaintenancePlan,
    plan_maintenance,
)
from repro.maintain.relabel import relabel_records
from repro.maintain.watermark import (
    Watermark,
    read_watermark,
    write_watermark,
)
from repro.rdf.columnar import ColumnarBackend, SnapshotError
from repro.rdf.store import TripleStore
from repro.sampling.io import load_workload, save_workload
from repro.sampling.workload import QueryRecord, generate_workload
from repro.serve.artifacts import load_checkpoint, save_checkpoint

Shape = Tuple[str, int]

WORKLOAD_DIRNAME = "workload"
CHECKPOINTS_DIRNAME = "checkpoints"
SNAPSHOTS_DIRNAME = "snapshots"


class MaintenanceError(RuntimeError):
    """A maintenance run cannot proceed (bad state directory, no
    previous generation to fine-tune from, unreachable reload URL)."""


def generation_dirname(run: int) -> str:
    return f"gen-{run:04d}"


@dataclass
class MaintenanceReport:
    """What one ``run()`` did, JSON-ready for the CLI."""

    #: "full" | "incremental" | "dry-run" | "noop"
    action: str
    #: generation published by this run (unchanged for dry-run/noop)
    run: int
    plan: Optional[dict] = None
    checkpoint_dir: Optional[str] = None
    snapshot_dir: Optional[str] = None
    finetune: Optional[dict] = None
    #: per-shape relabelled-record counts ("star_2": 12, ...)
    relabeled: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    reload_response: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "run": self.run,
            "plan": self.plan,
            "checkpoint_dir": self.checkpoint_dir,
            "snapshot_dir": self.snapshot_dir,
            "finetune": self.finetune,
            "relabeled": self.relabeled,
            "seconds": round(self.seconds, 3),
            "reload_response": self.reload_response,
        }


class MaintenanceRunner:
    """Materialize, then maintain, the estimator over a mutating store.

    Models are always grouped by size (:class:`SizeGrouping`), so every
    generation of a state directory routes queries the same way;
    freshness is graded under the default :class:`FreshnessPolicy`.
    """

    def __init__(
        self,
        store: TripleStore,
        state_dir: Union[str, Path],
        shapes: Sequence[Shape] = (("star", 2), ("chain", 2)),
        queries_per_shape: int = 300,
        epochs: int = 15,
        finetune_epochs: int = DEFAULT_FINETUNE_EPOCHS,
        hidden_sizes: Tuple[int, ...] = (64, 64),
        seed: int = 0,
    ) -> None:
        self.store = store
        self.state_dir = Path(state_dir)
        self.shapes: List[Shape] = [
            (str(t), int(s)) for t, s in shapes
        ]
        self.queries_per_shape = queries_per_shape
        self.epochs = epochs
        self.finetune_epochs = finetune_epochs
        self.hidden_sizes = tuple(hidden_sizes)
        self.seed = seed
        self.grouping = SizeGrouping()

    # ------------------------------------------------------------------
    # State-directory accessors
    # ------------------------------------------------------------------

    @property
    def workload_dir(self) -> Path:
        return self.state_dir / WORKLOAD_DIRNAME

    def checkpoint_dir(self, run: int) -> Path:
        return (
            self.state_dir
            / CHECKPOINTS_DIRNAME
            / generation_dirname(run)
        )

    def snapshot_dir(self, run: int) -> Path:
        return (
            self.state_dir
            / SNAPSHOTS_DIRNAME
            / generation_dirname(run)
        )

    def watermark(self) -> Optional[Watermark]:
        return read_watermark(self.state_dir)

    def _shape_path(self, shape: Shape) -> Path:
        topology, size = shape
        return self.workload_dir / f"{topology}_{size}.tsv"

    def _load_materialization(
        self,
    ) -> Dict[Shape, List[QueryRecord]]:
        """The persisted labelled workload, one TSV per shape."""
        out: Dict[Shape, List[QueryRecord]] = {}
        for shape in self.shapes:
            path = self._shape_path(shape)
            if path.is_file():
                out[shape] = load_workload(path)
        return out

    def _base_backend(
        self, watermark: Optional[Watermark]
    ) -> Optional[ColumnarBackend]:
        """Attach the watermark generation's snapshot as the diff base."""
        if watermark is None:
            return None
        directory = self.snapshot_dir(watermark.run)
        if not directory.is_dir():
            return None
        try:
            return ColumnarBackend.load(
                directory, mmap_mode="r", verify=False
            )
        except SnapshotError:
            return None

    # ------------------------------------------------------------------
    # Planning / status
    # ------------------------------------------------------------------

    def plan(self, force_full: bool = False) -> MaintenancePlan:
        watermark = self.watermark()
        return plan_maintenance(
            self.store,
            watermark,
            self._base_backend(watermark),
            self._load_materialization(),
            self.grouping,
            force_full=force_full,
        )

    def freshness(self) -> FreshnessStatus:
        return check_freshness(self.watermark(), self.store)

    def status(self) -> dict:
        """Watermark vs. live store, freshness verdict, delta summary."""
        watermark = self.watermark()
        status: dict = {
            "state_dir": str(self.state_dir),
            "watermark": (
                watermark.to_dict() if watermark else None
            ),
            "store": {
                "num_triples": len(self.store),
                "num_nodes": self.store.num_nodes,
                "num_predicates": self.store.num_predicates,
                "generation": int(self.store.generation),
            },
            "freshness": self.freshness().to_dict(),
        }
        plan = self.plan()
        status["plan"] = plan.to_dict()
        return status

    # ------------------------------------------------------------------
    # The materialization itself
    # ------------------------------------------------------------------

    def run(
        self,
        full: bool = False,
        dry_run: bool = False,
        reload_url: Optional[str] = None,
    ) -> MaintenanceReport:
        """Execute plan → relabel → fine-tune → publish → reload.

        ``full=True`` forces a from-scratch rebuild; ``dry_run=True``
        computes and returns the plan without touching anything.
        """
        started = time.perf_counter()
        plan = self.plan(force_full=full)
        watermark = self.watermark()
        current_run = watermark.run if watermark else 0
        if dry_run:
            return MaintenanceReport(
                action="dry-run",
                run=current_run,
                plan=plan.to_dict(),
                seconds=time.perf_counter() - started,
            )
        if plan.full:
            report = self._run_full(plan, current_run + 1)
        elif not plan.stale_shapes:
            return MaintenanceReport(
                action="noop",
                run=current_run,
                plan=plan.to_dict(),
                seconds=time.perf_counter() - started,
            )
        else:
            report = self._run_incremental(
                plan, watermark, current_run + 1
            )
        if reload_url is not None:
            report.reload_response = self._trigger_reload(
                reload_url, report
            )
        report.seconds = time.perf_counter() - started
        return report

    def _run_full(
        self, plan: MaintenancePlan, run: int
    ) -> MaintenanceReport:
        """First-run (or forced) path: materialize everything."""
        records_by_shape: Dict[Shape, List[QueryRecord]] = {}
        for i, (topology, size) in enumerate(self.shapes):
            workload = generate_workload(
                self.store,
                topology,
                size,
                num_queries=self.queries_per_shape,
                seed=self.seed + 37 * i,
            )
            records_by_shape[(topology, size)] = list(
                workload.records
            )
        framework = LMKG(
            self.store,
            model_type="supervised",
            grouping=self.grouping,
            lmkgs_config=LMKGSConfig(
                hidden_sizes=self.hidden_sizes,
                epochs=self.epochs,
                seed=self.seed,
            ),
            seed=self.seed,
        )
        all_records = [
            r
            for shape in self.shapes
            for r in records_by_shape.get(shape, [])
        ]
        framework.fit(shapes=self.shapes, workload=all_records)
        report = MaintenanceReport(
            action="full", run=run, plan=plan.to_dict()
        )
        report.relabeled = {
            f"{t}_{s}": len(records_by_shape[(t, s)])
            for t, s in self.shapes
        }
        self._publish(
            framework, records_by_shape, self.shapes, run, report
        )
        return report

    def _run_incremental(
        self,
        plan: MaintenancePlan,
        watermark: Watermark,
        run: int,
    ) -> MaintenanceReport:
        """Delta path: relabel affected, fine-tune touched, publish."""
        previous = self.checkpoint_dir(watermark.run)
        if not previous.is_dir():
            raise MaintenanceError(
                f"watermark names generation {watermark.run} but "
                f"{previous} does not exist; run with --full"
            )
        records_by_shape = self._load_materialization()
        relabeled: Dict[str, int] = {}
        for shape in plan.stale_shapes:
            mask = plan.affected[shape]
            records_by_shape[shape] = relabel_records(
                self.store, records_by_shape[shape], mask
            )
            relabeled[f"{shape[0]}_{shape[1]}"] = int(mask.sum())
        # The previous generation's float64 masters, loaded against the
        # live (drifted) store: the planner already proved the
        # vocabulary is unchanged, which is what makes this legal.
        framework, _ = load_checkpoint(
            previous, self.store, allow_stale_store=True
        )
        merged = [
            r
            for shape in self.shapes
            for r in records_by_shape.get(shape, [])
        ]
        finetune = finetune_models(
            framework,
            plan.stale_keys,
            merged,
            epochs=self.finetune_epochs,
        )
        report = MaintenanceReport(
            action="incremental",
            run=run,
            plan=plan.to_dict(),
            finetune=finetune.to_dict(),
            relabeled=relabeled,
        )
        self._publish(
            framework,
            records_by_shape,
            plan.stale_shapes,
            run,
            report,
        )
        return report

    def _publish(
        self,
        framework: LMKG,
        records_by_shape: Dict[Shape, List[QueryRecord]],
        dirty_shapes: Sequence[Shape],
        run: int,
        report: MaintenanceReport,
    ) -> None:
        """Persist workload TSVs, checkpoint, snapshot, watermark.

        Ordered so that a crash mid-publish never corrupts the previous
        generation: new files land in fresh ``gen-NNNN`` directories,
        and the state-level watermark — the pointer that makes the new
        generation current — is written last.
        """
        self.workload_dir.mkdir(parents=True, exist_ok=True)
        for shape in dirty_shapes:
            save_workload(
                self._shape_path(shape), records_by_shape[shape]
            )
        checkpoint = self.checkpoint_dir(run)
        save_checkpoint(framework, checkpoint)
        snapshot = self.snapshot_dir(run)
        self.store.save_snapshot(snapshot, record_source=False)
        mark = Watermark.of_store(self.store, run)
        write_watermark(checkpoint, mark)
        write_watermark(self.state_dir, mark)
        report.checkpoint_dir = str(checkpoint)
        report.snapshot_dir = str(snapshot)

    # ------------------------------------------------------------------
    # Serving hand-off
    # ------------------------------------------------------------------

    def _trigger_reload(
        self, url: str, report: MaintenanceReport
    ) -> dict:
        """POST the new generation to ``/admin/reload`` (load, then
        flip)."""
        body = json.dumps(
            {
                "checkpoint": report.checkpoint_dir,
                "snapshot": report.snapshot_dir,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            url,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=60
            ) as response:
                payload = json.loads(
                    response.read().decode("utf-8")
                )
        except OSError as exc:
            raise MaintenanceError(
                f"reload trigger failed against {url}: {exc}"
            ) from exc
        return payload
