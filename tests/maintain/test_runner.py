"""End-to-end MaintenanceRunner cycle: full → noop → incremental."""

import numpy as np
import pytest

from repro.maintain import MaintenanceError, MaintenanceRunner
from repro.rdf.fastcount import count_query
from repro.serve.artifacts import load_checkpoint


def make_runner(store, state_dir, **overrides):
    options = dict(
        shapes=(("star", 2), ("chain", 2)),
        queries_per_shape=30,
        epochs=2,
        finetune_epochs=1,
        hidden_sizes=(16, 16),
        seed=0,
    )
    options.update(overrides)
    return MaintenanceRunner(store, state_dir, **options)


@pytest.fixture
def runner(live_store, tmp_path):
    return make_runner(live_store, tmp_path / "state")


class TestFirstMaterialization:
    def test_full_run_publishes_generation_one(self, runner):
        report = runner.run()
        assert report.action == "full"
        assert report.run == 1
        assert report.plan["reason"] == (
            "no watermark: first materialization"
        )
        # dbt-shaped state directory: workload TSVs, versioned
        # checkpoint + snapshot, state-level watermark last.
        state = runner.state_dir
        assert (state / "watermark.json").is_file()
        for topology in ("star", "chain"):
            assert (
                state / "workload" / f"{topology}_2.tsv"
            ).is_file()
        checkpoint = runner.checkpoint_dir(1)
        assert checkpoint.is_dir()
        assert (checkpoint / "watermark.json").is_file()
        assert (runner.snapshot_dir(1) / "manifest.json").is_file()
        assert runner.watermark().run == 1
        assert runner.freshness().status == "pass"
        # Every shape was (re)labelled in full.
        assert report.relabeled == {"star_2": 30, "chain_2": 30}

    def test_published_checkpoint_estimates(self, runner):
        report = runner.run()
        framework, artifact = load_checkpoint(
            report.checkpoint_dir, runner.store
        )
        records = runner._load_materialization()[("star", 2)]
        estimate = framework.estimate(records[0].query)
        assert np.isfinite(estimate) and estimate >= 0.0
        assert artifact.store["num_triples"] == len(runner.store)


class TestSteadyState:
    def test_noop_when_nothing_changed(self, runner):
        runner.run()
        report = runner.run()
        assert report.action == "noop"
        assert report.run == 1
        assert runner.watermark().run == 1

    def test_dry_run_touches_nothing(
        self, runner, live_store, make_delta
    ):
        runner.run()
        live_store.add_all(make_delta(live_store, 20))
        report = runner.run(dry_run=True)
        assert report.action == "dry-run"
        assert report.plan["full"] is False
        assert report.plan["num_delta"] == 20
        assert runner.watermark().run == 1
        assert not runner.checkpoint_dir(2).exists()
        assert not runner.snapshot_dir(2).exists()


class TestIncremental:
    def test_delta_cycle_relabels_and_publishes(
        self, runner, live_store, make_delta
    ):
        runner.run()
        live_store.add_all(make_delta(live_store, 30))
        assert runner.freshness().status == "warn"
        report = runner.run()
        assert report.action == "incremental"
        assert report.run == 2
        assert report.finetune is not None
        assert report.finetune["models"], "a model must be fine-tuned"
        # Relabelled counts mirror the plan's affected sets.
        affected = report.plan["affected_records"]
        for shape_key, count in report.relabeled.items():
            assert count == affected[shape_key]["affected"]
        # The watermark caught up and freshness recovered.
        assert runner.watermark().run == 2
        assert runner.watermark().num_triples == len(live_store)
        assert runner.freshness().status == "pass"
        assert runner.run().action == "noop"

    def test_materialization_labels_exact_after_incremental(
        self, runner, live_store, make_delta
    ):
        """The merged TSVs must be indistinguishable from a re-count:
        the incremental path may not leave a single stale label."""
        runner.run()
        live_store.add_all(make_delta(live_store, 30))
        runner.run()
        for records in runner._load_materialization().values():
            for record in records:
                assert record.cardinality == count_query(
                    live_store, record.query
                )

    def test_missing_previous_checkpoint_raises(
        self, runner, live_store, make_delta
    ):
        import shutil

        runner.run()
        live_store.add_all(make_delta(live_store, 10))
        shutil.rmtree(runner.checkpoint_dir(1))
        with pytest.raises(MaintenanceError, match="--full"):
            runner.run()


class TestForcedAndFallbackFull:
    def test_forced_full_bumps_generation(self, runner):
        runner.run()
        report = runner.run(full=True)
        assert report.action == "full"
        assert report.run == 2
        assert report.plan["reason"] == "forced by --full"
        assert runner.checkpoint_dir(2).is_dir()

    def test_vocabulary_growth_forces_full(
        self, runner, live_store
    ):
        runner.run()
        new_node = max(live_store.nodes()) + 1
        predicate = live_store.predicates()[0]
        live_store.add(new_node, predicate, live_store.nodes()[0])
        plan = runner.plan()
        assert plan.full
        assert "vocabulary" in plan.reason
        report = runner.run()
        assert report.action == "full"
        assert report.run == 2


class TestStatus:
    def test_status_reports_all_surfaces(
        self, runner, live_store, make_delta
    ):
        status = runner.status()
        assert status["watermark"] is None
        assert status["freshness"]["status"] == "unknown"
        assert status["plan"]["full"] is True
        runner.run()
        live_store.add_all(make_delta(live_store, 15))
        status = runner.status()
        assert status["watermark"]["run"] == 1
        assert status["freshness"]["status"] == "warn"
        assert status["freshness"]["lag_triples"] == 15
        assert status["store"]["num_triples"] == len(live_store)
        assert status["plan"]["full"] is False
        assert status["plan"]["num_delta"] == 15
