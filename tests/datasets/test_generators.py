"""Tests that the synthetic datasets exhibit their calibrated properties."""

import numpy as np
import pytest

from repro.datasets import (
    clear_cache,
    generate_lubm,
    generate_swdf,
    generate_yago,
    load_dataset,
)
from repro.datasets.yago import predicate_vocabulary
from repro.rdf.stats import compute_stats, correlation_factor


class TestLubm:
    def test_deterministic_for_seed(self):
        a = generate_lubm(universities=2, seed=42)
        b = generate_lubm(universities=2, seed=42)
        assert set(a) == set(b)

    def test_different_seeds_differ(self):
        a = generate_lubm(universities=2, seed=1)
        b = generate_lubm(universities=2, seed=2)
        assert set(a) != set(b)

    def test_scales_with_universities(self):
        small = generate_lubm(universities=1, seed=0)
        large = generate_lubm(universities=4, seed=0)
        assert len(large) > 2 * len(small)

    def test_predicate_budget(self):
        store = generate_lubm(universities=2, seed=0)
        assert store.num_predicates <= 19

    def test_schema_correlations_present(self):
        """Every grad student with an advisor also takes courses —
        the predicate correlation LUBM queries exploit."""
        store = generate_lubm(universities=2, seed=0)
        d = store.dictionary
        advisor = d.predicates.lookup("ub:advisor")
        takes = d.predicates.lookup("ub:takesCourse")
        assert advisor is not None and takes is not None
        assert correlation_factor(store, advisor, takes) > 1.5


class TestSwdf:
    def test_predicate_vocabulary_size(self):
        store = generate_swdf(conferences=6, seed=0)
        # Not every padded annotation predicate necessarily fires at
        # small scale, but the bulk must.
        assert store.num_predicates > 100

    def test_dense_entity_reuse(self):
        store = generate_swdf(conferences=6, seed=0)
        stats = compute_stats(store, "swdf")
        # Dense interconnection: clearly more triples than entities.
        assert stats.num_triples > 2 * stats.num_entities

    def test_author_skew(self):
        store = generate_swdf(conferences=6, seed=0)
        d = store.dictionary
        creator = d.predicates.lookup("dc:creator")
        per_author = {}
        for s, p, o in store:
            if p == creator:
                per_author[o] = per_author.get(o, 0) + 1
        counts = sorted(per_author.values(), reverse=True)
        # Zipf: the most prolific author dominates the median one.
        assert counts[0] >= 5 * np.median(counts)


class TestYago:
    def test_vocabulary_is_91(self):
        assert len(predicate_vocabulary()) == 91

    def test_many_unique_terms(self):
        store = generate_yago(num_triples=5_000, seed=0)
        stats = compute_stats(store, "yago")
        # The YAGO regime: entity count within the same order as triples.
        assert stats.num_entities > 0.4 * stats.num_triples

    def test_triple_budget_respected(self):
        store = generate_yago(num_triples=3_000, seed=0)
        assert len(store) >= 3_000
        assert len(store) < 3_300

    def test_heavy_tail_degree(self):
        store = generate_yago(num_triples=8_000, seed=0)
        stats = compute_stats(store, "yago")
        assert stats.degree_gini > 0.3


class TestRegistry:
    def test_memoisation_returns_same_object(self):
        clear_cache()
        a = load_dataset("swdf", scale=0.25, seed=3)
        b = load_dataset("swdf", scale=0.25, seed=3)
        assert a is b

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("freebase")

    def test_scale_changes_size(self):
        clear_cache()
        small = load_dataset("yago", scale=0.1, seed=1)
        large = load_dataset("yago", scale=0.2, seed=1)
        assert len(large) > len(small)


class TestCrossProcessDeterminism:
    """Datasets must not depend on PYTHONHASHSEED (string-hash order).

    Regression test: the SWDF generator once keyed a correlation on
    ``hash(org)``, which varies per process and silently changed every
    downstream workload and bench result between runs.
    """

    @pytest.mark.parametrize("dataset", ["swdf", "lubm", "yago"])
    def test_same_triples_under_different_hash_seeds(self, dataset):
        import os
        import subprocess
        import sys

        script = (
            "import hashlib; "
            "from repro.datasets import load_dataset; "
            f"s = load_dataset('{dataset}', scale=0.25, seed=3); "
            "print(hashlib.md5(str(sorted(s)).encode())"
            ".hexdigest())"
        )
        digests = set()
        for hash_seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, (
            f"{dataset} generator output varies with PYTHONHASHSEED"
        )
