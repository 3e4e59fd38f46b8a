"""Tests for workload persistence (TSV save/load round trips)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from repro.rdf.pattern import QueryPattern
from repro.rdf.terms import TriplePattern, Variable
from repro.sampling import generate_workload
from repro.sampling.io import (
    WorkloadFormatError,
    load_workload,
    parse_pattern,
    render_pattern,
    save_workload,
)
from repro.sampling.workload import QueryRecord


def v(name):
    return Variable(name)


class TestPatternSerialization:
    def test_round_trip_mixed_terms(self):
        q = QueryPattern(
            [
                TriplePattern(v("x"), 5, 9),
                TriplePattern(9, 2, v("y")),
            ]
        )
        assert parse_pattern(render_pattern(q)).triples == q.triples

    def test_parse_rejects_malformed(self):
        for bad in (
            "",
            "(1 2)",
            "(1 2 3 4)",
            "1 2 3",
            "(1 2 ?)",
            "(a 2 3)",
        ):
            with pytest.raises(WorkloadFormatError):
                parse_pattern(bad)

    term = st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).map(
            Variable
        ),
    )

    @STANDARD_SETTINGS
    @given(st.lists(st.tuples(term, term, term), min_size=1, max_size=6))
    def test_round_trip_property(self, triples):
        q = QueryPattern([TriplePattern(*t) for t in triples])
        assert parse_pattern(render_pattern(q)).triples == q.triples


class TestFileRoundTrip:
    def test_save_and_load(self, lubm_store, tmp_path):
        workload = generate_workload(
            lubm_store, "star", 2, num_queries=25, seed=1
        )
        path = tmp_path / "workload.tsv"
        written = save_workload(path, workload)
        assert written == len(workload.records)
        loaded = load_workload(path)
        assert len(loaded) == len(workload.records)
        for original, restored in zip(workload.records, loaded):
            assert restored.query.triples == original.query.triples
            assert restored.cardinality == original.cardinality
            assert restored.topology == original.topology
            assert restored.size == original.size

    def test_loaded_records_train_a_model(self, lubm_store, tmp_path):
        from repro.core.lmkg_s import LMKGS, LMKGSConfig

        workload = generate_workload(
            lubm_store, "star", 2, num_queries=40, seed=2
        )
        path = tmp_path / "workload.tsv"
        save_workload(path, workload)
        records = load_workload(path)
        model = LMKGS(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(epochs=2, hidden_sizes=(8, 8)),
        )
        model.fit(records)
        assert model.estimate(records[0].query) >= 0.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n")
        with pytest.raises(WorkloadFormatError, match="header"):
            load_workload(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "topology\tsize\tcardinality\tpattern\n"
            "star\t2\t5\t(1 2 3)\n"
            "star\ttwo\t5\t(1 2 3)\n"
        )
        with pytest.raises(WorkloadFormatError, match="line 3"):
            load_workload(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text(
            "topology\tsize\tcardinality\tpattern\n"
            "star\t2\t5\t(?x 2 3);(?x 4 5)\n"
            "\n"
        )
        assert len(load_workload(path)) == 1
