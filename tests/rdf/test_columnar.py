"""Unit and property tests for the flat columnar backend."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from repro.rdf import TripleStore
from repro.rdf.columnar import ColumnarBackend, expand_ranges, in_sorted

triples_strategy = st.lists(
    st.tuples(
        st.integers(1, 12), st.integers(1, 4), st.integers(1, 12)
    ),
    max_size=60,
)


def build(triples):
    return ColumnarBackend.from_rows(list(set(triples)))


class TestConstruction:
    def test_empty(self):
        col = build([])
        assert col.size == 0
        assert col.subjects().size == 0
        assert col.nodes().size == 0
        assert col.objects_of(1, 1).size == 0
        assert not col.contains(1, 1, 1)
        assert col.memory_bytes() == 0

    def test_permutations_sorted(self):
        col = build([(3, 1, 2), (1, 2, 3), (2, 1, 1), (1, 1, 5)])
        spo = list(zip(col.spo_s, col.spo_p, col.spo_o))
        assert spo == sorted(spo)
        pos = list(zip(col.pos_p, col.pos_o, col.pos_s))
        assert pos == sorted(pos)
        osp = list(zip(col.osp_o, col.osp_s, col.osp_p))
        assert osp == sorted(osp)
        pso = list(zip(col.pso_p, col.pso_s, col.pso_o))
        assert pso == sorted(pso)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ColumnarBackend(
                np.array([1, 2]), np.array([1]), np.array([1, 2])
            )


class TestLookups:
    @given(triples_strategy)
    @STANDARD_SETTINGS
    def test_lookups_match_brute_force(self, triples):
        triples = set(triples)
        col = build(triples)
        subjects = {s for s, _, _ in triples}
        predicates = {p for _, p, _ in triples}
        objects = {o for _, _, o in triples}
        assert set(col.subjects().tolist()) == subjects
        assert set(col.predicates().tolist()) == predicates
        assert set(col.objects().tolist()) == objects
        assert set(col.nodes().tolist()) == subjects | objects
        for s in list(subjects)[:5]:
            for p in predicates:
                expected = sorted(
                    o for s2, p2, o in triples if s2 == s and p2 == p
                )
                assert col.objects_of(s, p).tolist() == expected
        for p in predicates:
            for o in list(objects)[:5]:
                expected = sorted(
                    s2 for s2, p2, o2 in triples if p2 == p and o2 == o
                )
                assert col.subjects_of(p, o).tolist() == expected
        for s, p, o in list(triples)[:10]:
            assert col.contains(s, p, o)
        assert not col.contains(99, 99, 99)

    @given(triples_strategy)
    @STANDARD_SETTINGS
    def test_degrees_and_counts(self, triples):
        triples = set(triples)
        col = build(triples)
        for s in {t[0] for t in triples}:
            assert col.out_degree(s) == sum(
                1 for t in triples if t[0] == s
            )
        for o in {t[2] for t in triples}:
            assert col.in_degree(o) == sum(
                1 for t in triples if t[2] == o
            )
        for p in {t[1] for t in triples}:
            assert col.predicate_count(p) == sum(
                1 for t in triples if t[1] == p
            )
            subs, fanouts = col.predicate_subject_stats(p)
            assert set(subs.tolist()) == {
                t[0] for t in triples if t[1] == p
            }
            assert int(fanouts.sum()) == col.predicate_count(p)

    @given(triples_strategy, st.integers(1, 4))
    @STANDARD_SETTINGS
    def test_vectorized_sp_primitives(self, triples, p):
        triples = set(triples)
        col = build(triples)
        probe = np.arange(0, 14, dtype=np.int64)
        counts = col.sp_counts(probe, p)
        for s, count in zip(probe.tolist(), counts.tolist()):
            assert count == sum(
                1 for t in triples if t[0] == s and t[1] == p
            )
        for o in range(1, 13):
            mask = col.sp_have_object(probe, p, o)
            for s, hit in zip(probe.tolist(), mask.tolist()):
                assert hit == ((s, p, o) in triples)


class TestHelpers:
    def test_expand_ranges(self):
        starts = np.array([2, 10, 5], dtype=np.int64)
        lengths = np.array([3, 0, 2], dtype=np.int64)
        assert expand_ranges(starts, lengths).tolist() == [2, 3, 4, 5, 6]

    def test_expand_ranges_empty(self):
        assert expand_ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ).size == 0

    def test_in_sorted(self):
        hay = np.array([2, 4, 4, 9], dtype=np.int64)
        needles = np.array([1, 2, 3, 4, 9, 10], dtype=np.int64)
        assert in_sorted(hay, needles).tolist() == [
            False, True, False, True, True, False,
        ]

    def test_in_sorted_empty_haystack(self):
        assert in_sorted(
            np.empty(0, dtype=np.int64), np.array([1, 2])
        ).tolist() == [False, False]


class TestStoreIntegration:
    def test_store_snapshot_tracks_generation(self):
        store = TripleStore()
        store.add(1, 1, 2)
        first = store.backend
        assert first.size == 1
        assert store.backend is first  # cached while unchanged
        store.add(2, 1, 3)
        second = store.backend
        assert second is not first
        assert second.size == 2

    def test_memory_accounting(self):
        store = TripleStore()
        store.add_all([(1, 1, 2), (2, 1, 3)])
        assert store.memory_bytes() == 2 * 96
        assert store.backend.memory_bytes() == 2 * 96
