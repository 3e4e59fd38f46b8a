"""Tests for range-query support (§IV future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.ranges import (
    EquiDepthHistogram,
    HistogramRangeEstimator,
    LMKGSRange,
    PredicateHistograms,
    RangeConstraint,
    RangeQuery,
    count_range_query,
    generate_range_workload,
)
from repro.core.lmkg_s import LMKGSConfig
from repro.rdf import count_bgp
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable


def v(name):
    return Variable(name)


class TestRangeConstraint:
    def test_contains_inclusive(self):
        c = RangeConstraint(0, 5, 10)
        assert c.contains(5)
        assert c.contains(10)
        assert not c.contains(4)
        assert not c.contains(11)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            RangeConstraint(0, 10, 5)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RangeConstraint(-1, 0, 5)


class TestRangeQuery:
    def test_rejects_out_of_bounds_constraint(self):
        base = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        with pytest.raises(ValueError, match="has 1 triples"):
            RangeQuery(base, (RangeConstraint(1, 0, 5),))

    def test_rejects_duplicate_constraints(self):
        base = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        with pytest.raises(ValueError, match="one range constraint"):
            RangeQuery(
                base,
                (RangeConstraint(0, 0, 5), RangeConstraint(0, 2, 3)),
            )

    def test_constraint_lookup(self):
        base = QueryPattern([TriplePattern(v("s"), 1, v("o"))])
        constraint = RangeConstraint(0, 0, 5)
        query = RangeQuery(base, (constraint,))
        assert query.constraint_for(0) is constraint
        assert query.constraint_for(1) is None


class TestCountRangeQuery:
    def test_unconstrained_equals_bgp_count(self, tiny_store):
        base = star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        assert count_range_query(
            tiny_store, RangeQuery(base)
        ) == count_bgp(tiny_store, base)

    def test_range_filters_objects(self, tiny_store):
        # (?x p1 ?o): objects are 2, 3, 3 — range [3, 3] keeps two.
        base = QueryPattern([TriplePattern(v("x"), 1, v("o"))])
        query = RangeQuery(base, (RangeConstraint(0, 3, 3),))
        assert count_range_query(tiny_store, query) == 2

    def test_full_range_keeps_everything(self, tiny_store):
        base = QueryPattern([TriplePattern(v("x"), 1, v("o"))])
        query = RangeQuery(base, (RangeConstraint(0, 0, 10**6),))
        assert count_range_query(tiny_store, query) == count_bgp(
            tiny_store, base
        )

    def test_empty_intersection(self, tiny_store):
        base = QueryPattern([TriplePattern(v("x"), 1, v("o"))])
        query = RangeQuery(base, (RangeConstraint(0, 100, 200),))
        assert count_range_query(tiny_store, query) == 0

    def test_multi_constraint_chain(self, tiny_store):
        # Chain x-p1->y-p2->z: constrain both join node and end node.
        base = chain_pattern([v("x"), 1, v("y"), 2, v("z")])
        query = RangeQuery(
            base,
            (RangeConstraint(0, 3, 3), RangeConstraint(1, 4, 4)),
        )
        # y must be 3 (pairs: 1-p1->3, 2-p1->3), z must be 4 (3-p2->4).
        assert count_range_query(tiny_store, query) == 2

    def test_constraint_on_bound_object(self, tiny_store):
        base = QueryPattern([TriplePattern(v("x"), 2, 4)])
        keeps = RangeQuery(base, (RangeConstraint(0, 4, 4),))
        drops = RangeQuery(base, (RangeConstraint(0, 5, 9),))
        assert count_range_query(tiny_store, keeps) == 3
        assert count_range_query(tiny_store, drops) == 0


class TestEquiDepthHistogram:
    def test_full_range_selectivity_is_one(self):
        hist = EquiDepthHistogram(list(range(100)), num_buckets=8)
        assert hist.selectivity(0, 99) == pytest.approx(1.0)

    def test_half_range_on_uniform_data(self):
        hist = EquiDepthHistogram(list(range(1000)), num_buckets=16)
        assert hist.selectivity(0, 499) == pytest.approx(0.5, abs=0.05)

    def test_empty_range(self):
        hist = EquiDepthHistogram([1, 2, 3])
        assert hist.selectivity(10, 5) == 0.0
        assert hist.selectivity(100, 200) == 0.0

    def test_skewed_data_equi_depth(self):
        # 90% of mass at value 1: a narrow range around it captures it.
        values = [1] * 900 + list(range(2, 102))
        hist = EquiDepthHistogram(values, num_buckets=10)
        assert hist.selectivity(1, 1) >= 0.8

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="no values"):
            EquiDepthHistogram([])

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            EquiDepthHistogram([1], num_buckets=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_selectivity_bounded_property(self, values, a, b):
        hist = EquiDepthHistogram(values, num_buckets=8)
        low, high = min(a, b), max(a, b)
        assert -1e-9 <= hist.selectivity(low, high) <= 1.0 + 1e-9


class TestPredicateHistograms:
    def test_per_predicate_selectivity(self, tiny_store):
        hists = PredicateHistograms(tiny_store, num_buckets=4)
        # All p2 objects are 4.
        assert hists.selectivity(2, 4, 4) == pytest.approx(1.0)
        assert hists.selectivity(2, 5, 9) == pytest.approx(0.0)

    def test_unknown_predicate_uses_global(self, tiny_store):
        hists = PredicateHistograms(tiny_store)
        assert 0.0 <= hists.selectivity(99, 0, 100) <= 1.0
        assert hists.selectivity(99, 0, 100) == pytest.approx(1.0)

    def test_unbound_predicate_uses_global(self, tiny_store):
        hists = PredicateHistograms(tiny_store)
        assert hists.selectivity(None, 0, 10**6) == pytest.approx(1.0)

    def test_memory_reported(self, tiny_store):
        assert PredicateHistograms(tiny_store).memory_bytes() > 0


class TestGenerateRangeWorkload:
    def test_records_have_exact_labels(self, lubm_store):
        records = generate_range_workload(
            lubm_store, "star", 2, num_queries=15, seed=3
        )
        assert records
        for record in records[:5]:
            assert record.cardinality == count_range_query(
                lubm_store, record.query
            )

    def test_constrained_count_never_exceeds_base(self, lubm_store):
        records = generate_range_workload(
            lubm_store, "star", 2, num_queries=15, seed=4
        )
        for record in records:
            if record.query.constraints:
                base_count = count_bgp(lubm_store, record.query.base)
                assert record.cardinality <= base_count

    def test_some_queries_get_constraints(self, lubm_store):
        records = generate_range_workload(
            lubm_store, "star", 2, num_queries=20, seed=5
        )
        assert any(r.query.constraints for r in records)


class TestLMKGSRange:
    @pytest.fixture(scope="class")
    def trained(self, lubm_store):
        records = generate_range_workload(
            lubm_store, "star", 2, num_queries=150, seed=6
        )
        model = LMKGSRange(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(epochs=30, hidden_sizes=(64, 64)),
        )
        model.fit(records)
        return model, records

    def test_input_width_extends_base(self, lubm_store):
        model = LMKGSRange(lubm_store, ["star"], 2)
        assert model.input_width == model._base.input_width + 2

    def test_featurize_marks_constraints(self, lubm_store, trained):
        model, records = trained
        constrained = next(
            r for r in records if r.query.constraints
        )
        features = model.featurize([constrained.query])
        idx = constrained.query.constraints[0].triple_index
        slot = model._base.input_width + idx
        assert features[0, slot] <= 1.0

    def test_estimates_are_positive(self, trained):
        model, records = trained
        for record in records[:10]:
            assert model.estimate(record.query) >= 0.0

    def test_estimate_before_fit_raises(self, lubm_store):
        model = LMKGSRange(lubm_store, ["star"], 2)
        base = star_pattern(v("x"), [(1, v("a")), (2, v("b"))])
        with pytest.raises(RuntimeError, match="before fit"):
            model.estimate(RangeQuery(base))

    def test_learns_training_distribution(self, trained):
        from repro.core.metrics import q_errors

        model, records = trained
        estimates = model.estimate_batch([r.query for r in records])
        errors = q_errors(
            estimates, [r.cardinality for r in records]
        )
        # Trained on these queries: median training q-error must be low.
        assert float(np.median(errors)) < 5.0

    def test_memory_includes_histograms(self, trained, lubm_store):
        model, _ = trained
        assert (
            model.memory_bytes()
            > PredicateHistograms(lubm_store).memory_bytes()
        )


class TestHistogramRangeEstimator:
    def test_constraint_shrinks_estimate(self, lubm_store):
        est = HistogramRangeEstimator(lubm_store)
        preds = lubm_store.predicates()[:2]
        base = star_pattern(
            v("x"), [(p, v(f"o{i}")) for i, p in enumerate(preds)]
        )
        objects = lubm_store.backend.predicate_object_stats(preds[0])[
            0
        ].tolist()
        mid = objects[len(objects) // 2]
        unconstrained = est.estimate(RangeQuery(base))
        constrained = est.estimate(
            RangeQuery(
                base, (RangeConstraint(0, objects[0], mid),)
            )
        )
        assert constrained <= unconstrained + 1e-9


class TestRangeCheckpointing:
    def test_save_load_round_trip(self, lubm_store, tmp_path):
        records = generate_range_workload(
            lubm_store, "star", 2, num_queries=60, seed=12
        )
        model = LMKGSRange(
            lubm_store,
            ["star"],
            2,
            LMKGSConfig(epochs=5, hidden_sizes=(16, 16)),
        )
        model.fit(records)
        path = tmp_path / "range_model.npz"
        model.save(path)
        restored = LMKGSRange.load(path, lubm_store)
        for record in records[:10]:
            assert restored.estimate(record.query) == pytest.approx(
                model.estimate(record.query), rel=1e-5
            )

    def test_save_before_fit_raises(self, lubm_store, tmp_path):
        model = LMKGSRange(lubm_store, ["star"], 2)
        with pytest.raises(RuntimeError, match="before fit"):
            model.save(tmp_path / "x.npz")


class TestSparqlFilterParsing:
    """FILTER clauses round-trip into RangeQuery constraints."""

    @pytest.fixture
    def lex_store(self):
        from repro.rdf import TripleStore

        return TripleStore.from_lexical(
            [
                ("a", "year", "y1990"),
                ("b", "year", "y2000"),
                ("c", "year", "y2010"),
                ("a", "genre", "Horror"),
                ("b", "genre", "Horror"),
            ]
        )

    def test_parse_two_sided_filter(self, lex_store):
        from ext.ranges import parse_sparql_range

        query = parse_sparql_range(
            "SELECT ?x WHERE { ?x <year> ?y . "
            "FILTER(?y >= 2 && ?y <= 5) }",
            lex_store.dictionary,
        )
        assert len(query.constraints) == 1
        constraint = query.constraints[0]
        assert (constraint.low, constraint.high) == (2, 5)
        assert constraint.triple_index == 0

    def test_strict_comparisons_tighten_by_one(self, lex_store):
        from ext.ranges import parse_sparql_range

        query = parse_sparql_range(
            "SELECT ?x WHERE { ?x <year> ?y . "
            "FILTER(?y > 2 && ?y < 9) }",
            lex_store.dictionary,
        )
        constraint = query.constraints[0]
        assert (constraint.low, constraint.high) == (3, 8)

    def test_equality_pins_both_bounds(self, lex_store):
        from ext.ranges import parse_sparql_range

        query = parse_sparql_range(
            "SELECT ?x WHERE { ?x <year> ?y . FILTER(?y = 7) }",
            lex_store.dictionary,
        )
        constraint = query.constraints[0]
        assert (constraint.low, constraint.high) == (7, 7)

    def test_no_filter_gives_plain_range_query(self, lex_store):
        from ext.ranges import parse_sparql_range

        query = parse_sparql_range(
            "SELECT ?x WHERE { ?x <year> ?y . }",
            lex_store.dictionary,
        )
        assert query.constraints == ()

    def test_empty_range_rejected(self, lex_store):
        from ext.ranges import parse_sparql_range
        from repro.rdf.parser import ParseError

        with pytest.raises(ParseError, match="empty range"):
            parse_sparql_range(
                "SELECT ?x WHERE { ?x <year> ?y . "
                "FILTER(?y > 5 && ?y < 5) }",
                lex_store.dictionary,
            )

    def test_filter_on_subject_only_variable_rejected(self, lex_store):
        from ext.ranges import parse_sparql_range
        from repro.rdf.parser import ParseError

        with pytest.raises(ParseError, match="object variables only"):
            parse_sparql_range(
                "SELECT ?x WHERE { ?x <genre> <Horror> . "
                "FILTER(?x >= 1) }",
                lex_store.dictionary,
            )

    def test_unsupported_condition_rejected(self, lex_store):
        from ext.ranges import parse_sparql_range
        from repro.rdf.parser import ParseError

        with pytest.raises(ParseError, match="unsupported FILTER"):
            parse_sparql_range(
                "SELECT ?x WHERE { ?x <year> ?y . "
                "FILTER(regex(?y, 'a')) }",
                lex_store.dictionary,
            )

    def test_parsed_query_counts_correctly(self, lex_store):
        from ext.ranges import count_range_query, parse_sparql_range

        # Object ids follow insertion order; filter down to a sub-range
        # and check against a manual count over all object ids.
        query = parse_sparql_range(
            "SELECT ?x WHERE { ?x <year> ?y . FILTER(?y <= 3) }",
            lex_store.dictionary,
        )
        unfiltered = parse_sparql_range(
            "SELECT ?x WHERE { ?x <year> ?y . }",
            lex_store.dictionary,
        )
        assert count_range_query(
            lex_store, query
        ) <= count_range_query(lex_store, unfiltered)

    def test_format_round_trip(self, lex_store):
        from ext.ranges import (
            format_sparql_range,
            parse_sparql_range,
        )

        text = (
            "SELECT ?x WHERE { ?x <year> ?y . "
            "FILTER(?y >= 2 && ?y <= 5) }"
        )
        query = parse_sparql_range(text, lex_store.dictionary)
        rendered = format_sparql_range(query, lex_store.dictionary)
        reparsed = parse_sparql_range(rendered, lex_store.dictionary)
        assert reparsed.constraints == query.constraints
        assert reparsed.base.triples == query.base.triples
