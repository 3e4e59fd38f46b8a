"""Affected-set exactness and the merge-on-relabel step."""

import numpy as np
import pytest

from repro.maintain.relabel import (
    affected_mask,
    relabel_records,
)
from repro.rdf.fastcount import count_query
from repro.rdf.pattern import star_pattern
from repro.rdf.terms import Variable
from repro.sampling.workload import QueryRecord, generate_workload


def v(name):
    return Variable(name)


def star_record(pairs, cardinality=0):
    query = star_pattern(v("x"), pairs)
    return QueryRecord(
        query=query,
        topology="star",
        size=query.size,
        cardinality=cardinality,
    )


class TestAffectedMask:
    def test_empty_delta_touches_nothing(self):
        records = [star_record([(1, v("a")), (2, v("b"))])]
        mask = affected_mask(
            records, np.empty((0, 3), dtype=np.int64)
        )
        assert not mask.any()

    def test_no_records_is_empty_mask(self):
        mask = affected_mask([], np.array([[1, 2, 3]]))
        assert mask.shape == (0,)

    def test_matching_bound_positions_flags_record(self):
        records = [
            star_record([(1, v("a")), (2, v("b"))]),
            star_record([(3, v("a")), (3, v("b"))]),
        ]
        # Predicate 1 appears only in the first record's patterns.
        mask = affected_mask(records, np.array([[9, 1, 9]]))
        assert mask.tolist() == [True, False]

    def test_bound_object_must_match(self):
        records = [star_record([(1, 5), (2, v("b"))])]
        assert affected_mask(records, np.array([[9, 1, 5]])).all()
        assert not affected_mask(
            records, np.array([[9, 1, 6]])
        ).any()

    def test_unrelated_predicate_touches_nothing(self):
        records = [
            star_record([(1, v("a")), (2, v("b"))]),
            star_record([(2, v("a")), (1, v("b"))]),
        ]
        mask = affected_mask(records, np.array([[4, 7, 4]]))
        assert not mask.any()

    def test_mask_is_necessary_for_label_change(
        self, live_store, make_delta
    ):
        """Exactness on a real graph: every label the delta actually
        moved must be inside the mask (unmasked labels stay exact)."""
        records = []
        for topology in ("star", "chain"):
            records.extend(
                generate_workload(
                    live_store, topology, 2, 60, seed=5
                ).records
            )
        delta = make_delta(live_store, 40)
        mask = affected_mask(records, delta)
        live_store.add_all(delta)
        changed = np.array(
            [
                count_query(live_store, r.query) != r.cardinality
                for r in records
            ]
        )
        assert changed.any(), "delta should move some label"
        # changed ⊆ mask: no label change outside the affected set.
        assert not (changed & ~mask).any()


class TestRelabelRecords:
    def test_relabelled_labels_match_fresh_counts(
        self, live_store, make_delta
    ):
        records = list(
            generate_workload(live_store, "star", 2, 60, seed=5).records
        )
        delta = make_delta(live_store, 40)
        mask = affected_mask(records, delta)
        assert mask.any()
        live_store.add_all(delta)
        merged = relabel_records(live_store, records, mask)
        assert len(merged) == len(records)
        for i, record in enumerate(merged):
            if mask[i]:
                assert record.cardinality == count_query(
                    live_store, record.query
                )
            else:
                assert record is records[i]

    def test_empty_mask_passes_through(self, live_store):
        records = list(
            generate_workload(live_store, "star", 2, 10, seed=5).records
        )
        mask = np.zeros(len(records), dtype=bool)
        assert relabel_records(live_store, records, mask) == records

    def test_mask_length_mismatch_rejected(self, live_store):
        records = list(
            generate_workload(live_store, "star", 2, 5, seed=5).records
        )
        with pytest.raises(ValueError, match="mask covers"):
            relabel_records(
                live_store, records, np.zeros(3, dtype=bool)
            )
