"""Shared utilities for the synthetic knowledge-graph generators.

All three dataset generators (:mod:`repro.datasets.lubm`,
:mod:`repro.datasets.swdf`, :mod:`repro.datasets.yago`) need the same
primitives: heavy-tailed (Zipf-like) sampling over finite pools, skewed
integer ranges, and a builder that accumulates lexical triples into a
dictionary-encoded :class:`~repro.rdf.store.TripleStore`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.rdf.dictionary import GraphDictionary
from repro.rdf.store import TripleStore


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf weights over ranks 1..n."""
    if n <= 0:
        raise ValueError("pool size must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


class ZipfSampler:
    """Draws indices in [0, n) with Zipfian popularity.

    The cumulative distribution is precomputed; each draw is one binary
    search, so sampling millions of triples stays fast.
    """

    def __init__(
        self, n: int, exponent: float, rng: np.random.Generator
    ) -> None:
        self._cdf = np.cumsum(zipf_weights(n, exponent))
        self._rng = rng
        self.n = n

    def draw(self) -> int:
        return int(np.searchsorted(self._cdf, self._rng.random()))


def skewed_count(
    rng: np.random.Generator, low: int, high: int, exponent: float = 1.5
) -> int:
    """A count in [low, high] biased toward the low end (power-law-ish)."""
    if low > high:
        raise ValueError("low must not exceed high")
    span = high - low + 1
    weights = zipf_weights(span, exponent)
    return low + int(rng.choice(span, p=weights))


class GraphBuilder:
    """Accumulates lexical triples and produces an encoded store.

    Generators express their schema in readable lexical URIs; the builder
    handles dictionary encoding and duplicate suppression.
    """

    def __init__(self) -> None:
        self.dictionary = GraphDictionary()
        self.store = TripleStore(self.dictionary)

    def add(self, s: str, p: str, o: str) -> None:
        self.store.add(*self.dictionary.encode_triple(s, p, o))

    @property
    def num_triples(self) -> int:
        return len(self.store)

    def build(self) -> TripleStore:
        return self.store


def pick_distinct(
    rng: np.random.Generator, pool: List[str], count: int
) -> List[str]:
    """Up to *count* distinct elements of *pool*, uniformly."""
    count = min(count, len(pool))
    if count == 0:
        return []
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in idx]
