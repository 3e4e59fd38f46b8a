"""Planner tests: delta computation, full-rebuild triggers, staleness."""

import dataclasses

import numpy as np
import pytest

from repro.core.grouping import make_grouping
from repro.maintain.planner import (
    compute_delta,
    plan_maintenance,
)
from repro.maintain.watermark import Watermark
from repro.rdf.columnar import ColumnarBackend
from repro.sampling.workload import generate_workload


@pytest.fixture
def base_backend(live_store, tmp_path):
    """The retained snapshot of the watermark generation."""
    directory = tmp_path / "base"
    live_store.save_snapshot(directory, record_source=False)
    return ColumnarBackend.load(directory, mmap_mode="r", verify=False)


@pytest.fixture
def records_by_shape(live_store):
    return {
        (topology, 2): list(
            generate_workload(live_store, topology, 2, 50, seed=3).records
        )
        for topology in ("star", "chain")
    }


def as_set(rows):
    return {tuple(map(int, row)) for row in rows}


class TestComputeDelta:
    def test_unchanged_store_has_empty_delta(
        self, live_store, base_backend
    ):
        assert compute_delta(live_store, base_backend).shape == (0, 3)

    def test_delta_is_exactly_the_added_rows(
        self, live_store, base_backend, make_delta
    ):
        added = make_delta(live_store, 25)
        live_store.add_all(added)
        delta = compute_delta(live_store, base_backend)
        assert as_set(delta) == as_set(added)


class TestFullRebuildTriggers:
    def plan(self, store, watermark, base, records, **kwargs):
        return plan_maintenance(
            store,
            watermark,
            base,
            records,
            make_grouping("size"),
            **kwargs,
        )

    def test_force_full(
        self, live_store, base_backend, records_by_shape
    ):
        plan = self.plan(
            live_store,
            Watermark.of_store(live_store, 1),
            base_backend,
            records_by_shape,
            force_full=True,
        )
        assert plan.full
        assert "forced" in plan.reason

    def test_no_watermark_means_first_materialization(
        self, live_store, records_by_shape
    ):
        plan = self.plan(live_store, None, None, records_by_shape)
        assert plan.full
        assert "first materialization" in plan.reason

    def test_missing_base_snapshot(
        self, live_store, records_by_shape
    ):
        plan = self.plan(
            live_store,
            Watermark.of_store(live_store, 1),
            None,
            records_by_shape,
        )
        assert plan.full
        assert "base snapshot" in plan.reason

    def test_vocabulary_change(
        self, live_store, base_backend, records_by_shape
    ):
        stale = dataclasses.replace(
            Watermark.of_store(live_store, 1),
            num_nodes=live_store.num_nodes - 1,
        )
        plan = self.plan(
            live_store, stale, base_backend, records_by_shape
        )
        assert plan.full
        assert "vocabulary" in plan.reason

    def test_shrunken_store(
        self, live_store, base_backend, records_by_shape
    ):
        inflated = dataclasses.replace(
            Watermark.of_store(live_store, 1),
            num_triples=len(live_store) + 10,
        )
        plan = self.plan(
            live_store, inflated, base_backend, records_by_shape
        )
        assert plan.full
        assert "shrank" in plan.reason

    def test_base_watermark_size_mismatch(
        self, live_store, base_backend, records_by_shape, make_delta
    ):
        watermark = Watermark.of_store(live_store, 1)
        # The store (and hence a later watermark) moved past the
        # retained base without a matching snapshot: not diffable.
        live_store.add_all(make_delta(live_store, 5))
        drifted = dataclasses.replace(
            watermark, num_triples=len(live_store)
        )
        plan = self.plan(
            live_store, drifted, base_backend, records_by_shape
        )
        assert plan.full
        assert "does not match" in plan.reason


class TestIncrementalPlan:
    def test_no_delta_plans_nothing(
        self, live_store, base_backend, records_by_shape
    ):
        plan = plan_maintenance(
            live_store,
            Watermark.of_store(live_store, 1),
            base_backend,
            records_by_shape,
            make_grouping("size"),
        )
        assert not plan.full
        assert plan.num_delta == 0
        assert plan.stale_shapes == []
        assert set(plan.fresh_shapes) == set(records_by_shape)

    def test_delta_marks_stale_shapes_and_keys(
        self, live_store, base_backend, records_by_shape, make_delta
    ):
        watermark = Watermark.of_store(live_store, 1)
        live_store.add_all(make_delta(live_store, 40))
        grouping = make_grouping("size")
        plan = plan_maintenance(
            live_store,
            watermark,
            base_backend,
            records_by_shape,
            grouping,
        )
        assert not plan.full
        assert plan.num_delta == 40
        assert plan.stale_shapes, "a 40-triple delta must stale something"
        for shape in plan.stale_shapes:
            mask = plan.affected[shape]
            assert mask.shape == (len(records_by_shape[shape]),)
            assert plan.num_affected(shape) == int(mask.sum())
        # Keys are the grouping image of the stale shapes, deduplicated.
        expected = []
        for topology, size in plan.stale_shapes:
            key = grouping.key(topology, size)
            if key not in expected:
                expected.append(key)
        assert plan.stale_keys == expected

    def test_to_dict_summarises_the_plan(
        self, live_store, base_backend, records_by_shape, make_delta
    ):
        watermark = Watermark.of_store(live_store, 1)
        live_store.add_all(make_delta(live_store, 40))
        payload = plan_maintenance(
            live_store,
            watermark,
            base_backend,
            records_by_shape,
            make_grouping("size"),
        ).to_dict()
        assert payload["full"] is False
        assert payload["num_delta"] == 40
        for topology, size in payload["stale_shapes"]:
            entry = payload["affected_records"][f"{topology}_{size}"]
            assert 0 <= entry["affected"] <= entry["total"]
            assert entry["total"] == 50
