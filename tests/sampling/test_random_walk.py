"""Tests for instance sampling: universe counts and uniformity."""

from collections import Counter

import numpy as np
import pytest

from repro.rdf import TripleStore
from repro.sampling import (
    ChainSampler,
    StarSampler,
    chain_walk_counts,
    count_chain_instances,
    count_star_instances,
    make_strategy,
    sample_instances,
)
from repro.sampling.random_walk import _biased_rw_batch


class TestUniverseCounts:
    def test_star_counts_by_hand(self, tiny_store):
        # outdegs: 1->3, 2->2, 3->1, 4->2; sum d^2 = 9+4+1+4 = 18.
        assert count_star_instances(tiny_store, 2) == 18
        assert count_star_instances(tiny_store, 1) == 8

    def test_chain_counts_by_hand(self, tiny_store):
        # Walks of length 2: enumerate: from 1 via (1,2): 2 has 2 edges;
        # via (1,3): 3 has 1; via (2,4): 4 has 2 -> 5.  From 2: via 3 ->1,
        # via 4 -> 2 -> 3. From 3: via 4 -> 2. From 4: 5,6 dead-end -> 0.
        assert count_chain_instances(tiny_store, 2) == 10
        assert count_chain_instances(tiny_store, 1) == 8

    def test_walk_count_tables_shape(self, tiny_store):
        tables = chain_walk_counts(tiny_store, 3)
        assert len(tables) == 4
        assert all(v == 1 for v in tables[0].values())

    def test_size_validation(self, tiny_store):
        with pytest.raises(ValueError):
            count_star_instances(tiny_store, 0)
        with pytest.raises(ValueError):
            chain_walk_counts(tiny_store, 0)


class TestStarSampler:
    def test_instances_are_valid(self, tiny_store):
        sampler = StarSampler(tiny_store, 2, seed=0)
        for inst in sampler.sample_many(50):
            s = inst[0]
            assert len(inst) == 5
            for i in range(2):
                p, o = inst[1 + 2 * i], inst[2 + 2 * i]
                assert (s, p, o) in tiny_store

    def test_uniform_over_universe(self, tiny_store):
        """Empirical frequency of subjects follows outdeg^k."""
        sampler = StarSampler(tiny_store, 2, seed=1)
        counts = Counter(inst[0] for inst in sampler.sample_many(6000))
        total = count_star_instances(tiny_store, 2)
        for subject, expected_weight in ((1, 9), (2, 4), (3, 1), (4, 4)):
            observed = counts[subject] / 6000
            expected = expected_weight / total
            assert abs(observed - expected) < 0.03

    def test_universe_recorded(self, tiny_store):
        assert StarSampler(tiny_store, 2).universe == 18


class TestChainSampler:
    def test_instances_are_valid_walks(self, tiny_store):
        sampler = ChainSampler(tiny_store, 2, seed=0)
        for inst in sampler.sample_many(50):
            for i in range(2):
                s, p, o = inst[2 * i], inst[2 * i + 1], inst[2 * i + 2]
                assert (s, p, o) in tiny_store

    def test_uniform_over_walks(self, tiny_store):
        """Every individual walk appears with frequency ~ 1/10."""
        sampler = ChainSampler(tiny_store, 2, seed=2)
        counts = Counter(sampler.sample_many(8000))
        assert len(counts) == 10
        for _, count in counts.items():
            assert abs(count / 8000 - 0.1) < 0.03

    def test_no_walks_raises(self):
        store = TripleStore()
        store.add(1, 1, 2)  # only length-1 walks exist
        with pytest.raises(ValueError):
            ChainSampler(store, 2)


class TestBiasedRW:
    def test_star_none_on_dead_node_possible(self, tiny_store, rng):
        """A walk from a node without out-edges is dropped, not padded."""
        start = np.repeat(tiny_store.backend.nodes(), 20)
        instances = _biased_rw_batch(tiny_store, "star", 2, start, rng)
        # Start nodes 5 and 6 have no out-edges; 1-4 always succeed.
        assert len(instances) == 4 * 20
        assert {inst[0] for inst in instances} == {1, 2, 3, 4}

    def test_chain_walks_valid_when_complete(self, tiny_store, rng):
        start = np.repeat(tiny_store.backend.nodes(), 50)
        instances = _biased_rw_batch(tiny_store, "chain", 2, start, rng)
        assert instances
        for inst in instances:
            for i in range(2):
                assert (
                    inst[2 * i], inst[2 * i + 1], inst[2 * i + 2]
                ) in tiny_store
        # 4 -> {5, 6} dead-ends after one step; 5 and 6 have no edge.
        assert not {inst[0] for inst in instances} & {4, 5, 6}

    def test_rw_bias_differs_from_exact(self, tiny_store):
        """The RW sampler over-represents low-degree start nodes relative
        to the exact sampler — the bias the paper blames for LMKG-U's
        residual error."""
        exact, _ = sample_instances(tiny_store, "star", 2, 4000, seed=0)
        rw, _ = sample_instances(
            tiny_store, "star", 2, 4000, seed=0, method="rw"
        )
        exact_freq = Counter(i[0] for i in exact)
        rw_freq = Counter(i[0] for i in rw)
        # Subject 3 (degree 1) should be over-represented under RW.
        assert rw_freq[3] / len(rw) > exact_freq[3] / len(exact)


class TestSampleInstances:
    def test_dispatch_validation(self, tiny_store):
        with pytest.raises(ValueError):
            sample_instances(tiny_store, "cycle", 2, 5)
        with pytest.raises(ValueError):
            sample_instances(tiny_store, "star", 2, 5, method="magic")

    def test_returns_universe(self, tiny_store):
        _, universe = sample_instances(tiny_store, "chain", 2, 5)
        assert universe == 10

    @pytest.mark.parametrize("method", ["exact", "rw", "degree_rw"])
    def test_universe_exact_for_every_method(self, tiny_store, method):
        for topology, universe in (("star", 18), ("chain", 10)):
            _, got = sample_instances(
                tiny_store, topology, 2, 5, method=method
            )
            assert got == universe

    @pytest.mark.parametrize("topology", ["star", "chain"])
    def test_rw_strategy_is_sample_instances_rw(self, lubm_store, topology):
        """One walk: the ablation's strategy draws what training uses."""
        strategy = make_strategy("rw", lubm_store, topology, 2, seed=4)
        instances, _ = sample_instances(
            lubm_store, topology, 2, 300, seed=4, method="rw"
        )
        assert strategy.sample_many(300) == instances


class TestBiasedRWBatchValidity:
    """Regression: the batched RW samplers must respect the topology."""

    def test_rw_star_instances_share_the_subject(self, tiny_store):
        instances, _ = sample_instances(
            tiny_store, "star", 2, 200, seed=3, method="rw"
        )
        assert instances
        for inst in instances:
            s = inst[0]
            for i in range(2):
                p, o = inst[1 + 2 * i], inst[2 + 2 * i]
                assert (s, p, o) in tiny_store

    def test_rw_chain_instances_are_walks(self, tiny_store):
        instances, _ = sample_instances(
            tiny_store, "chain", 2, 200, seed=3, method="rw"
        )
        assert instances
        for inst in instances:
            for i in range(2):
                s, p, o = inst[2 * i], inst[2 * i + 1], inst[2 * i + 2]
                assert (s, p, o) in tiny_store
