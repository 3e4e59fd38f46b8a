"""Tests for the LMKG framework façade: grouping, routing, decomposition."""

import re

import numpy as np
import pytest

from repro.core.decomposition import (
    classified_components,
    combine_estimates,
)
from repro.core.framework import LMKG, EstimationError
from repro.core.lmkg_s import LMKGSConfig
from repro.core.lmkg_u import LMKGUConfig
from repro.rdf.pattern import QueryPattern, chain_pattern, star_pattern
from repro.rdf.terms import TriplePattern, Variable
from repro.sampling import generate_workload

FAST_S = LMKGSConfig(hidden_sizes=(32, 32), epochs=15, seed=0)
FAST_U = LMKGUConfig(
    embed_dim=8,
    hidden_sizes=(32, 32),
    epochs=2,
    training_samples=2_000,
    particles=64,
    seed=0,
)


def v(name):
    return Variable(name)


def components_of(query):
    """The components of *query*, without their topologies."""
    return [c for c, _ in classified_components(query, query.topology())]


@pytest.fixture(scope="module")
def lubm_store():
    from repro.datasets import load_dataset

    return load_dataset("lubm", scale=0.5, seed=1)


@pytest.fixture(scope="module")
def supervised(lubm_store):
    framework = LMKG(
        lubm_store,
        model_type="supervised",
        grouping="size",
        lmkgs_config=FAST_S,
    )
    framework.fit(
        shapes=[("star", 2), ("chain", 2)], queries_per_shape=250
    )
    return framework


@pytest.fixture(scope="module")
def mixed_batch(lubm_store):
    """Stars, chains and three kinds of compound, interleaved: a star
    beside a disjoint chain, a star whose last arm runs on into a chain,
    and a star with a single triple pointing at its centre."""
    stars = generate_workload(lubm_store, "star", 2, 12, seed=51)
    chains = generate_workload(lubm_store, "chain", 2, 12, seed=52)
    batch = []
    for k, (star, chain) in enumerate(zip(stars, chains)):
        star, chain = star.query, chain.query
        batch += [star, chain]
        # the chain under variable names no star uses
        first, second = (
            TriplePattern(
                *(
                    v("k_" + t.name) if isinstance(t, Variable) else t
                    for t in tp
                )
            )
            for tp in chain.triples
        )
        if k % 3 == 0:
            extra = [first, second]
        elif k % 3 == 1:
            extra = [
                TriplePattern(star.triples[-1].o, first.p, first.o),
                second,
            ]
        else:
            extra = [TriplePattern(v("tail"), 1, star.triples[0].s)]
        batch.append(QueryPattern(list(star.triples) + extra))
    return batch


class TestConstruction:
    def test_unknown_model_type(self, lubm_store):
        with pytest.raises(ValueError):
            LMKG(lubm_store, model_type="semi-supervised")

    def test_unsupervised_forces_specialized(self, lubm_store):
        framework = LMKG(
            lubm_store, model_type="unsupervised", grouping="single"
        )
        assert framework.grouping.name == "specialized"

    def test_grouping_by_name_or_instance(self, lubm_store):
        from repro.core.grouping import TypeGrouping

        by_name = LMKG(lubm_store, grouping="type")
        by_instance = LMKG(lubm_store, grouping=TypeGrouping())
        assert by_name.grouping.name == by_instance.grouping.name


class TestCreationPhase:
    def test_report_lists_models(self, supervised):
        assert supervised.num_models() >= 1
        assert supervised.memory_bytes() > 0

    def test_workload_override(self, lubm_store):
        workload = generate_workload(lubm_store, "star", 2, 150, seed=42)
        framework = LMKG(
            lubm_store, grouping="specialized", lmkgs_config=FAST_S
        )
        report = framework.fit(
            shapes=[("star", 2)], workload=workload.records
        )
        assert report.training_records[("star", 2)] == len(workload)

    def test_unsupervised_creation(self, lubm_store):
        framework = LMKG(
            lubm_store, model_type="unsupervised", lmkgu_config=FAST_U
        )
        report = framework.fit(shapes=[("star", 2)])
        assert ("star", 2) in report.model_keys


class TestExecutionPhase:
    def test_star_and_chain_routed(self, supervised, lubm_store):
        star = generate_workload(lubm_store, "star", 2, 5, seed=9)
        chain = generate_workload(lubm_store, "chain", 2, 5, seed=9)
        for record in list(star) + list(chain):
            assert supervised.estimate(record.query) >= 0.0

    def test_single_triple_exact(self, supervised, lubm_store):
        tp = next(iter(lubm_store))
        query = QueryPattern([TriplePattern(tp[0], tp[1], v("o"))])
        expected = lubm_store.count_pattern(query.triples[0])
        assert supervised.estimate(query) == float(expected)

    def test_missing_model_raises(self, supervised):
        big = star_pattern(
            v("x"), [(1, v(f"y{i}")) for i in range(8)]
        )
        with pytest.raises(EstimationError):
            supervised.estimate(big)

    def test_composite_query_decomposed(self, supervised, lubm_store):
        """star + tail composite routes through decomposition and the
        single-triple exact path."""
        star = generate_workload(lubm_store, "star", 2, 10, seed=30)
        record = star.records[0]
        tail_var = record.query.variables[-1]
        composite = QueryPattern(
            list(record.query.triples)
            + [TriplePattern(tail_var, 1, v("tail"))]
        )
        estimate = supervised.estimate(composite)
        assert estimate >= 0.0

    def test_unsupervised_size_pinned(self, lubm_store):
        framework = LMKG(
            lubm_store, model_type="unsupervised", lmkgu_config=FAST_U
        )
        framework.fit(shapes=[("star", 2)])
        query3 = star_pattern(
            v("x"), [(1, v("a")), (2, v("b")), (3, v("c"))]
        )
        with pytest.raises(EstimationError):
            framework.estimate(query3)


class TestEstimateBatch:
    def test_matches_estimate_loop(self, supervised, lubm_store):
        """The batched router must agree with the per-query path."""
        import numpy as np

        star = generate_workload(lubm_store, "star", 2, 20, seed=11)
        chain = generate_workload(lubm_store, "chain", 2, 20, seed=12)
        queries = [r.query for r in list(star) + list(chain)]
        loop = [supervised.estimate(q) for q in queries]
        batch = supervised.estimate_batch(queries)
        assert len(batch) == len(queries)
        assert np.allclose(loop, batch, rtol=1e-6)

    def test_single_triples_exact_in_batch(self, supervised, lubm_store):
        tp = next(iter(lubm_store))
        query = QueryPattern([TriplePattern(tp[0], tp[1], v("o"))])
        expected = float(lubm_store.count_pattern(query.triples[0]))
        assert supervised.estimate_batch([query]).tolist() == [expected]

    def test_returns_ndarray(self, supervised, lubm_store):
        """The unified Estimator protocol: float64 ndarray, like the
        baselines."""
        import numpy as np

        star = generate_workload(lubm_store, "star", 2, 5, seed=13)
        batch = supervised.estimate_batch([r.query for r in star])
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.float64
        assert np.all(batch >= 0.0)

    def test_list_shim_for_existing_callers(self, supervised, lubm_store):
        """Migration shim: pre-redesign callers did
        ``list(framework.estimate_batch(qs))`` (the old List[float]
        return); iterating the ndarray must keep working and yield the
        same per-query floats."""
        star = generate_workload(lubm_store, "star", 2, 10, seed=14)
        queries = [r.query for r in star]
        batch = supervised.estimate_batch(queries)
        as_list = list(batch)
        assert len(as_list) == len(queries)
        assert all(isinstance(float(value), float) for value in as_list)
        assert as_list == [float(value) for value in batch]

    def test_empty_batch(self, supervised):
        assert supervised.estimate_batch([]).size == 0

    def test_missing_model_raises_in_batch(self, supervised):
        big = star_pattern(
            v("x"), [(1, v(f"y{i}")) for i in range(8)]
        )
        with pytest.raises(EstimationError):
            supervised.estimate_batch([big])

    def test_invariant_under_permutation_and_renaming(
        self, supervised, mixed_batch
    ):
        """Routing classifies each query once and regroups components
        by model: neither the order of the batch nor the names of the
        variables may show in an answer."""
        base = supervised.estimate_batch(mixed_batch)
        order = np.random.default_rng(5).permutation(len(mixed_batch))
        permuted = supervised.estimate_batch(
            [mixed_batch[i] for i in order]
        )
        # float32 GEMM rows may round differently at another position
        assert np.allclose(permuted, base[order], rtol=1e-5, atol=0)

        def rename(term):
            return v("r_" + term.name[::-1]) if isinstance(
                term, Variable
            ) else term

        renamed = [
            QueryPattern(
                [
                    TriplePattern(rename(tp.s), rename(tp.p), rename(tp.o))
                    for tp in query.triples
                ]
            )
            for query in mixed_batch
        ]
        # same batch, same positions, same features: same bits
        assert np.array_equal(supervised.estimate_batch(renamed), base)

    def test_compound_equals_combined_components(
        self, supervised, lubm_store, mixed_batch
    ):
        """A compound's answer is ``combine_estimates`` over its
        components estimated on their own."""
        compounds = [
            (i, q) for i, q in enumerate(mixed_batch)
            if len(components_of(q)) > 1
        ]
        assert len(compounds) >= 10
        base = supervised.estimate_batch(mixed_batch)
        for i, query in compounds:
            components = components_of(query)
            combined = combine_estimates(
                lubm_store,
                components,
                supervised.estimate_batch(components),
            )
            assert combined == pytest.approx(base[i], rel=1e-5)

    def test_unsupervised_batch(self, lubm_store):
        framework = LMKG(
            lubm_store, model_type="unsupervised", lmkgu_config=FAST_U
        )
        framework.fit(shapes=[("star", 2)])
        star = generate_workload(lubm_store, "star", 2, 8, seed=21)
        estimates = framework.estimate_batch(
            [r.query for r in star]
        )
        assert len(estimates) == len(star)
        assert all(e >= 0.0 for e in estimates)


class TestTreeFallbackInOneBatch:
    """A star whose shape has no star model is answered by the tree
    model, per query: the route table of a call holds which model
    covers a shape, never an estimate."""

    TINY_S = LMKGSConfig(hidden_sizes=(8,), epochs=1, seed=0)

    @pytest.fixture(scope="class")
    def tree_only(self, lubm_store):
        """Specialized grouping, one model: ("tree", 3)."""
        framework = LMKG(
            lubm_store, grouping="specialized", lmkgs_config=self.TINY_S
        )
        framework.fit(shapes=[("tree", 3)], queries_per_shape=30)
        assert list(framework.models) == [("tree", 3)]
        return framework

    @pytest.fixture(scope="class")
    def stars(self, lubm_store, tree_only):
        """Two tree-shaped star:3 queries whose tree estimates differ."""
        from repro.rdf.treecount import is_tree_query

        records = generate_workload(lubm_store, "star", 3, 40, seed=17)
        queries = [r.query for r in records if is_tree_query(r.query)]
        first = queries[0]
        second = next(
            q for q in queries[1:]
            if tree_only.estimate(q) != tree_only.estimate(first)
        )
        return first, second

    def test_each_query_gets_its_own_tree_estimate(self, tree_only, stars):
        first, second = stars
        batch = tree_only.estimate_batch([first, second, first])
        assert batch.tolist() == [
            tree_only.estimate(first),
            tree_only.estimate(second),
            tree_only.estimate(first),
        ]
        assert batch[0] != batch[1]

    def test_uncovered_shape_still_raises(self, tree_only, stars):
        """A chain:2 has neither a chain model nor a tree model of its
        size: the batch fails with the router's message, whatever the
        tree model absorbed before it."""
        first, second = stars
        chain = generate_workload(
            tree_only.store, "chain", 2, 1, seed=18
        ).records[0].query
        with pytest.raises(
            EstimationError,
            match=re.escape(
                "no model trained for key ('chain', 2) "
                "(topology=chain, size=2)"
            ),
        ):
            tree_only.estimate_batch([first, chain, second])


class TestCoveredShapes:
    """``covered_shapes`` is the routing probe the artifact records and
    admission control reads: exactly what ``_model_for`` /
    ``_tree_model`` accept, per grouping."""

    TINY_S = LMKGSConfig(hidden_sizes=(8,), epochs=1, seed=0)
    TINY_U = LMKGUConfig(
        embed_dim=4,
        hidden_sizes=(8,),
        epochs=1,
        training_samples=200,
        particles=8,
        seed=0,
    )

    @pytest.mark.parametrize(
        ("grouping", "shapes", "expected"),
        [
            (
                # one size<=4 model: every topology it saw, up to the
                # largest size it saw
                "size",
                [("star", 2), ("star", 3), ("chain", 2)],
                {"chain": [2, 3], "star": [2, 3]},
            ),
            (
                "type",
                [("star", 2), ("star", 3), ("chain", 2)],
                {"chain": [2], "star": [2, 3]},
            ),
            (
                "specialized",
                [("star", 2), ("chain", 3)],
                {"chain": [3], "star": [2]},
            ),
            (
                "size",
                [("star", 2), ("tree", 3)],
                {"star": [2, 3], "tree": [2, 3]},
            ),
        ],
    )
    def test_supervised_groupings(
        self, lubm_store, grouping, shapes, expected
    ):
        from repro.serve.admission import ShapeManifest

        framework = LMKG(
            lubm_store, grouping=grouping, lmkgs_config=self.TINY_S
        )
        framework.fit(shapes=shapes, queries_per_shape=30)
        assert framework.covered_shapes() == expected
        assert (
            ShapeManifest.from_framework(framework).to_dict() == expected
        )

    def test_unsupervised_is_pinned_to_its_sizes(self, lubm_store):
        from repro.serve.admission import ShapeManifest

        framework = LMKG(
            lubm_store,
            model_type="unsupervised",
            lmkgu_config=self.TINY_U,
        )
        framework.fit(shapes=[("star", 3), ("chain", 2)])
        expected = {"chain": [2], "star": [3]}
        assert framework.covered_shapes() == expected
        assert (
            ShapeManifest.from_framework(framework).to_dict() == expected
        )

    def test_every_covered_shape_routes(self, supervised):
        for topology, sizes in supervised.covered_shapes().items():
            for size in sizes:
                assert supervised._model_for(topology, size) is not None
        with pytest.raises(EstimationError):
            supervised._model_for("star", 3)
