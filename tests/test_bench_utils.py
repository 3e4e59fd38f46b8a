"""Tests for the benchmark harness utilities (profiles, reporting)."""

import numpy as np
import pytest

from repro.bench.profiles import FULL, QUICK, STANDARD, active_profile
from repro.bench.reporting import append_history, format_bytes, format_table


class TestProfiles:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert active_profile().name == "quick"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "quick")
        assert active_profile().name == "quick"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "FULL")
        assert active_profile().name == "full"

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "hyperspeed")
        with pytest.raises(KeyError):
            active_profile()

    def test_budgets_ordered(self):
        assert (
            QUICK.train_queries_per_shape
            < STANDARD.train_queries_per_shape
            <= FULL.train_queries_per_shape
        )
        assert QUICK.sampling_runs < FULL.sampling_runs
        assert set(QUICK.query_sizes) <= set(FULL.query_sizes)

    def test_paper_budgets_in_full(self):
        assert FULL.lmkgs_epochs == 200
        assert FULL.lmkgu_epochs == 5
        assert FULL.sampling_runs == 30
        assert FULL.mscn_big_samples == 1_000


class TestReporting:
    def test_table_alignment(self):
        text = format_table(
            ("name", "value"),
            [("a", 1.0), ("long-name", 123.456)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        # All data lines have equal width.
        assert len(lines[3]) == len(lines[4])

    def test_float_formatting(self):
        text = format_table(("x",), [(0.001234,), (123456.0,), (0,)])
        assert "1.23e-03" in text
        assert "1.23e+05" in text

    def test_nan_cells_render(self):
        text = format_table(("x",), [(float("nan"),)])
        assert "nan" in text

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(2_048) == "2.0KB"
        assert format_bytes(3_500_000) == "3.5MB"

    def test_history_lines_carry_machine_facts(self, tmp_path, monkeypatch):
        import json
        import os
        import platform

        from repro.rdf.parallel import available_cpus

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        path = tmp_path / "history.jsonl"
        append_history(path, {"a": {"x": 1}})
        append_history(path, {"b": {"y": 2}})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["sections"] for line in lines] == [
            {"a": {"x": 1}}, {"b": {"y": 2}},
        ]
        for line in lines:
            assert line["recorded_at"]
            assert line["machine"] == {
                "cpu_count": os.cpu_count(),
                "available_cpus": available_cpus(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "thread_env": {
                    "OPENBLAS_NUM_THREADS": "1",
                    "OMP_NUM_THREADS": None,
                    "MKL_NUM_THREADS": "2",
                },
            }


class TestEstimatorOrder:
    def test_matches_paper_legend(self):
        from repro.bench import ESTIMATOR_ORDER

        assert ESTIMATOR_ORDER[0] == "impr"
        assert ESTIMATOR_ORDER[-1] == "lmkg-s"
        assert "cset" in ESTIMATOR_ORDER
        assert len(ESTIMATOR_ORDER) == 9
