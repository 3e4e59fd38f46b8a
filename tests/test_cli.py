"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.dataset == "lubm"
        assert args.scale == 1.0

    def test_train_shapes(self):
        args = build_parser().parse_args(
            ["train", "--shapes", "star:2", "chain:3", "--out", "/tmp/x"]
        )
        assert args.shapes == ["star:2", "chain:3"]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serving_and_maintenance_options_are_pinned(self):
        """Every serving and maintenance option, by name: adding a knob
        is a diff to this test.  The values no flag sets live on the
        class that owns them (see the ``repro.cli`` docstring)."""
        import argparse
        import inspect

        from repro.serve import ServingApp

        def subcommand(parser, *path):
            for name in path:
                (action,) = [
                    a
                    for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)
                ]
                parser = action.choices[name]
            return parser

        def long_flags(*path):
            parser = subcommand(build_parser(), *path)
            return {
                option
                for action in parser._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            }

        maintain = {
            "--dataset", "--scale", "--ntriples", "--snapshot",
            "--state-dir", "--shapes", "--queries", "--epochs",
            "--hidden", "--seed", "--json",
        }
        assert long_flags("serve") == {
            "--snapshot", "--checkpoint", "--save-checkpoint", "--host",
            "--port", "--workers", "--fit-queries", "--fit-epochs",
            "--faults",
        }
        assert long_flags("replay", "run") == {
            "--trace", "--snapshot", "--checkpoint", "--url",
            "--workers", "--timeline", "--maintain-state-dir",
            "--fit-queries", "--fit-epochs", "--deadline-s",
            "--connections", "--max-retries", "--no-retry-after",
            "--rate-scale", "--seed", "--slo-p99-ms", "--slo-p999-ms",
            "--slo-max-shed", "--slo-min-achieved", "--slo-max-errors",
            "--report",
        }
        assert long_flags("maintain", "status") == maintain
        assert long_flags("maintain", "run") == maintain | {
            "--full", "--dry-run", "--reload-url",
        }
        assert list(inspect.signature(ServingApp).parameters) == [
            "snapshot", "checkpoint", "save_checkpoint", "host", "port",
            "workers", "fit_defaults", "fault_spec",
        ]

    def test_batch_scheduler_constructor_is_pinned(self):
        """The scheduler's policy is a batch cap and a queue cap, and
        nothing else: no coalescing window to tune."""
        import inspect

        from repro.serve import BatchScheduler

        assert list(inspect.signature(BatchScheduler).parameters) == [
            "estimate_batch", "max_batch", "max_queue",
        ]

    def test_stats_policy_keys_are_pinned(self):
        """``GET /stats`` reports the policy the scheduler runs, by
        name (the HTTP layer serves ``BatchScheduler.stats`` as is)."""
        import numpy as np

        from repro.serve import BatchScheduler

        scheduler = BatchScheduler(lambda queries: np.zeros(len(queries)))
        try:
            assert set(scheduler.stats()["policy"]) == {
                "max_batch", "max_queue",
            }
        finally:
            scheduler.close()

    def test_command_surface_is_pinned(self):
        """The subcommands, and the train / estimate flags and models,
        by name: a new command, flag or checkpoint format is a diff to
        this test."""
        import argparse

        (action,) = [
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(action.choices) == {
            "stats", "train", "estimate", "workload", "label",
            "snapshot", "maintain", "serve", "replay",
        }

        def options(command):
            return {
                option: a
                for a in action.choices[command]._actions
                for option in a.option_strings
                if option.startswith("--") and option != "--help"
            }

        train, estimate = options("train"), options("estimate")
        store = {"--dataset", "--scale", "--ntriples"}
        assert set(train) == store | {
            "--model", "--shapes", "--epochs", "--hidden", "--queries",
            "--seed", "--out",
        }
        assert set(estimate) == store | {
            "--model", "--checkpoint", "--query", "--exact",
        }
        for flags in (train, estimate):
            assert flags["--model"].choices == ("lmkg-s", "lmkg-u")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--shapes", "foo:2"], "bad shape 'foo:2'"),
            (["train", "--shapes", "star:0"], "bad shape 'star:0'"),
            (
                ["train", "--model", "lmkg-u", "--shapes", "tree:3"],
                "lmkg-u trains star/chain shapes",
            ),
            (["workload", "--size", "0"], "--size: must be >= 1"),
            (["label", "--size", "-2"], "--size: must be >= 1"),
            (
                ["estimate", "--checkpoint", "unused", "--query", "x"],
                "bad query: ",
            ),
        ],
        ids=[
            "unknown-topology", "size-0", "lmkg-u-tree", "workload-size-0",
            "label-size-negative", "unparsable-query",
        ],
    )
    def test_input_errors_are_usage_errors(
        self, argv, message, tmp_path, capsys
    ):
        """Caught before or right after the store loads, as one line."""
        if argv[0] == "train":
            argv = argv + ["--out", str(tmp_path / "ckpt")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scale", "0.25"])
        assert message in f"{exc.value.code} {capsys.readouterr().err}"

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--scale",
                    "0.25",
                    "--shapes",
                    "star-two",
                    "--out",
                    str(tmp_path / "x.npz"),
                ]
            )


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--dataset", "lubm", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "triples:" in out
        assert "predicates:" in out

    def test_workload_tsv(self, capsys):
        code = main(
            [
                "workload",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--topology",
                "chain",
                "--size",
                "2",
                "--count",
                "5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("topology")
        assert len(lines) == 6
        assert all("chain\t2\t" in line for line in lines[1:])

    def test_train_then_estimate(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        code = main(
            [
                "train",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--shapes",
                "star:2",
                "--epochs",
                "3",
                "--queries",
                "80",
                "--hidden",
                "16",
                "--out",
                str(checkpoint),
            ]
        )
        assert code == 0
        assert (checkpoint / "artifact.json").is_file()
        capsys.readouterr()
        code = main(
            [
                "estimate",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--checkpoint",
                str(checkpoint),
                "--query",
                "SELECT ?x WHERE { ?x <ub:advisor> ?y . "
                "?x <ub:takesCourse> ?z . }",
                "--exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert "q-error:" in out

    def test_lmkg_u_estimate_matches_the_library(self, tmp_path, capsys):
        """``repro estimate --model lmkg-u`` prints what a server over
        the same checkpoint answers: the one-element batch."""
        from repro.datasets import load_dataset
        from repro.rdf.parser import parse_sparql
        from repro.serve.artifacts import load_checkpoint

        checkpoint = tmp_path / "u"
        common = ["--dataset", "lubm", "--scale", "0.25", "--model", "lmkg-u"]
        code = main(
            [
                "train", *common,
                "--shapes", "star:2",
                "--epochs", "3",
                "--queries", "4000",
                "--hidden", "32",
                "--out", str(checkpoint),
            ]
        )
        assert code == 0
        capsys.readouterr()
        text = (
            "SELECT ?x WHERE { ?x <ub:advisor> ?y . "
            "?x <ub:takesCourse> ?z . }"
        )
        code = main(
            [
                "estimate", *common,
                "--checkpoint", str(checkpoint),
                "--query", text,
            ]
        )
        assert code == 0
        store = load_dataset("lubm", scale=0.25)
        query = parse_sparql(text, store.dictionary)
        framework, _ = load_checkpoint(checkpoint, store)
        expected = framework.estimate_batch([query])[0]
        assert f"estimate: {expected:.1f}\n" == capsys.readouterr().out

    def test_ntriples_input(self, tmp_path, capsys):
        nt = tmp_path / "g.nt"
        nt.write_text(
            "<a> <p> <b> .\n<b> <p> <c> .\n<a> <q> <c> .\n"
        )
        code = main(["stats", "--ntriples", str(nt)])
        assert code == 0
        assert "triples:         3" in capsys.readouterr().out


class TestSnapshotCommands:
    def save(self, tmp_path, capsys):
        directory = tmp_path / "snap"
        code = main(
            [
                "snapshot",
                "save",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--out",
                str(directory),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshotted to" in out
        return directory

    def test_save_then_load(self, tmp_path, capsys):
        directory = self.save(tmp_path, capsys)
        assert (directory / "manifest.json").is_file()
        code = main(["snapshot", "load", "--dir", str(directory)])
        assert code == 0
        out = capsys.readouterr().out
        assert "memory-mapped" in out
        assert "triples:" in out
        assert "dictionary:  yes" in out

    def test_load_eager(self, tmp_path, capsys):
        directory = self.save(tmp_path, capsys)
        code = main(
            ["snapshot", "load", "--dir", str(directory), "--eager"]
        )
        assert code == 0
        assert "(eager)" in capsys.readouterr().out

    def test_load_missing_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="snapshot load failed"):
            main(["snapshot", "load", "--dir", str(tmp_path / "nope")])

    def test_load_corrupted_fails_cleanly(self, tmp_path, capsys):
        directory = self.save(tmp_path, capsys)
        (directory / "spo_s.npy").write_bytes(b"garbage")
        with pytest.raises(SystemExit, match="snapshot load failed"):
            main(["snapshot", "load", "--dir", str(directory)])

    def test_snapshot_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["snapshot"])

    def test_saved_snapshot_reusable_from_api(self, tmp_path, capsys):
        from repro.datasets import load_dataset
        from repro.rdf import TripleStore

        directory = self.save(tmp_path, capsys)
        loaded = TripleStore.load_snapshot(directory)
        direct = load_dataset("lubm", scale=0.25)
        assert len(loaded) == len(direct)
        assert set(loaded) == set(direct)


class TestSnapshotInfo:
    def save(self, tmp_path, capsys):
        directory = tmp_path / "snap"
        assert (
            main(
                [
                    "snapshot",
                    "save",
                    "--dataset",
                    "lubm",
                    "--scale",
                    "0.25",
                    "--out",
                    str(directory),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return directory

    def test_flat_layout_human_output(self, tmp_path, capsys):
        directory = self.save(tmp_path, capsys)
        assert main(["snapshot", "info", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "(flat)" in out
        assert "repro-columnar" in out
        assert "dictionary:  yes" in out
        assert "crc32:" in out

    def test_flat_layout_json(self, tmp_path, capsys):
        import json

        from repro.rdf import TripleStore

        directory = self.save(tmp_path, capsys)
        assert (
            main(["snapshot", "info", "--dir", str(directory), "--json"])
            == 0
        )
        info = json.loads(capsys.readouterr().out)
        assert info["layout"] == "flat"
        assert info["format"] == "repro-columnar"
        assert info["has_dictionary"] is True
        assert info["crc32"]
        store = TripleStore.load_snapshot(directory)
        assert info["num_triples"] == len(store)
        assert (
            info["dictionary_checksum"]
            == store.dictionary.checksum()
        )

    def test_sharded_layout_fails_cleanly(self, tmp_path):
        """A directory in the retired ``repro-sharded`` layout: one
        columnar shard under a top-level manifest naming it."""
        import json

        from repro.rdf import TripleStore

        directory = tmp_path / "sharded"
        store = TripleStore()
        store.add_all([(1, 1, 2), (2, 1, 3)])
        store.save_snapshot(directory / "shard-0000")
        (directory / "manifest.json").write_text(
            json.dumps(
                {
                    "format": "repro-sharded",
                    "version": 1,
                    "num_triples": 2,
                    "num_shards": 1,
                    "shards": [
                        {
                            "directory": "shard-0000",
                            "num_triples": 2,
                            "checksum": "00000000",
                        }
                    ],
                }
            )
        )
        with pytest.raises(
            SystemExit,
            match="snapshot inspection failed: .*not a repro-columnar",
        ):
            main(["snapshot", "info", "--dir", str(directory)])

    def test_missing_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="snapshot inspection"):
            main(["snapshot", "info", "--dir", str(tmp_path / "nope")])


class TestMaintainCommands:
    def materialize(self, tmp_path, capsys):
        """One full maintain run against a saved snapshot."""
        snapshot = tmp_path / "snap"
        assert (
            main(
                [
                    "snapshot",
                    "save",
                    "--dataset",
                    "lubm",
                    "--scale",
                    "0.25",
                    "--out",
                    str(snapshot),
                ]
            )
            == 0
        )
        capsys.readouterr()
        state = tmp_path / "state"
        base = [
            "maintain",
            "run",
            "--snapshot",
            str(snapshot),
            "--state-dir",
            str(state),
            "--shapes",
            "star:2",
            "--queries",
            "25",
            "--epochs",
            "2",
            "--hidden",
            "16",
        ]
        return snapshot, state, base

    def test_run_full_then_noop_then_status(self, tmp_path, capsys):
        import json

        snapshot, state, base = self.materialize(tmp_path, capsys)
        assert main(base + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["action"] == "full"
        assert report["run"] == 1
        assert (state / "watermark.json").is_file()
        assert (
            state / "checkpoints" / "gen-0001" / "watermark.json"
        ).is_file()
        # Second run: the snapshot has not moved, nothing to do.
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "action:      noop" in out
        assert "generation:  1" in out
        # Status agrees, with a passing freshness verdict.
        status_args = [
            "maintain",
            "status",
            "--snapshot",
            str(snapshot),
            "--state-dir",
            str(state),
            "--shapes",
            "star:2",
        ]
        assert main(status_args + ["--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["watermark"]["run"] == 1
        assert status["freshness"]["status"] == "pass"
        assert status["plan"]["full"] is False
        assert main(status_args) == 0
        out = capsys.readouterr().out
        assert "watermark:   generation 1" in out
        assert "freshness:   pass" in out
        assert "next run:    noop" in out

    def test_drift_warns_then_runs_incremental(self, tmp_path, capsys):
        """A ~1% vocabulary-preserving delta after the first full run:
        status warns and plans an incremental run, and the run is one."""
        import json

        import numpy as np

        from repro.rdf import TripleStore
        from repro.replay.harness import vocab_preserving_delta

        snapshot, state, base = self.materialize(tmp_path, capsys)
        assert main(base) == 0
        capsys.readouterr()
        store = TripleStore.load_snapshot(snapshot)
        store.add_all(
            vocab_preserving_delta(
                store, len(store) // 100, np.random.default_rng(13)
            )
        )
        live = tmp_path / "live"
        store.save_snapshot(live)
        on_live = [
            str(live) if arg == str(snapshot) else arg for arg in base
        ]
        status_args = [
            "maintain",
            "status",
            "--snapshot",
            str(live),
            "--state-dir",
            str(state),
            "--shapes",
            "star:2",
            "--json",
        ]
        assert main(status_args) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["freshness"]["status"] == "warn"
        assert status["plan"]["full"] is False
        assert main(on_live + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["action"] == "incremental"
        assert report["run"] == 2

    def test_status_before_first_run(self, tmp_path, capsys):
        snapshot, state, _ = self.materialize(tmp_path, capsys)
        assert (
            main(
                [
                    "maintain",
                    "status",
                    "--snapshot",
                    str(snapshot),
                    "--state-dir",
                    str(tmp_path / "virgin"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "watermark:   none" in out
        assert "next run:    full rebuild" in out

    def test_dry_run_publishes_nothing(self, tmp_path, capsys):
        import json

        _, state, base = self.materialize(tmp_path, capsys)
        assert main(base + ["--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["action"] == "dry-run"
        assert report["run"] == 0
        assert not (state / "watermark.json").exists()

    def test_requires_dictionary_encoded_store(
        self, tmp_path, capsys
    ):
        from repro.rdf import TripleStore

        bare = TripleStore()
        bare.add_all([(1, 1, 2), (2, 1, 3), (1, 2, 3)])
        snapshot = tmp_path / "bare"
        bare.save_snapshot(snapshot)
        with pytest.raises(SystemExit, match="dictionary"):
            main(
                [
                    "maintain",
                    "run",
                    "--snapshot",
                    str(snapshot),
                    "--state-dir",
                    str(tmp_path / "state"),
                ]
            )

    def test_bad_snapshot_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="snapshot load failed"):
            main(
                [
                    "maintain",
                    "run",
                    "--snapshot",
                    str(tmp_path / "nope"),
                    "--state-dir",
                    str(tmp_path / "state"),
                ]
            )


class TestLabelCommand:
    def test_label_serial(self, capsys):
        code = main(
            [
                "label",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--topology",
                "star",
                "--size",
                "2",
                "--count",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "labelled 20 star:2 queries" in out
        assert "serial" in out

    def test_label_workers_against_snapshot(self, tmp_path, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        directory = tmp_path / "snap"
        code = main(
            [
                "snapshot",
                "save",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--out",
                str(directory),
            ]
        )
        assert code == 0
        capsys.readouterr()
        out_path = tmp_path / "train.tsv"
        code = main(
            [
                "label",
                "--snapshot",
                str(directory),
                "--topology",
                "chain",
                "--size",
                "2",
                "--count",
                "25",
                "--workers",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers, shared snapshot" in out
        assert "written to" in out
        from repro.sampling.io import load_workload

        records = load_workload(out_path)
        assert len(records) == 25

    def test_label_workers_match_serial_output(self, tmp_path, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        serial_path = tmp_path / "serial.tsv"
        pooled_path = tmp_path / "pooled.tsv"
        base = [
            "label",
            "--dataset",
            "lubm",
            "--scale",
            "0.25",
            "--count",
            "15",
            "--seed",
            "3",
        ]
        assert main(base + ["--out", str(serial_path)]) == 0
        assert (
            main(base + ["--workers", "2", "--out", str(pooled_path)])
            == 0
        )
        capsys.readouterr()
        assert serial_path.read_text() == pooled_path.read_text()

    def test_label_negative_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be >= 0"):
            main(
                [
                    "label",
                    "--dataset",
                    "lubm",
                    "--scale",
                    "0.25",
                    "--count",
                    "5",
                    "--workers",
                    "-3",
                ]
            )

    def test_label_bad_snapshot_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="snapshot load failed"):
            main(
                [
                    "label",
                    "--snapshot",
                    str(tmp_path / "nope"),
                    "--count",
                    "5",
                ]
            )


class TestWorkloadOut:
    def test_workload_out_round_trips(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sampling.io import load_workload

        path = tmp_path / "wl.tsv"
        code = main(
            [
                "workload",
                "--dataset",
                "lubm",
                "--scale",
                "0.25",
                "--topology",
                "star",
                "--size",
                "2",
                "--count",
                "10",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        assert "written to" in capsys.readouterr().out
        assert len(load_workload(path)) > 0
