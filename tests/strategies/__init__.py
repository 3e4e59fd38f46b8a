"""Shared test-support package: hypothesis strategies and the fuzz corpus.

- :mod:`strategies.queries` — hypothesis composites for the generative
  query fuzzer, grounded in a real store's vocabulary, plus the shared
  ``fuzz_settings``;
- :mod:`strategies.corpus` — persisted minimized counterexamples,
  replayed deterministically in tier-1;
- :mod:`strategies.settings` — the shared ``STANDARD_SETTINGS`` /
  ``DETERMINISM_SETTINGS`` profiles of the property tests.

``pytest.ini`` puts ``tests/`` on ``sys.path``, so test modules import
this package as ``strategies``.  See ``README.md`` beside this file.
"""

from strategies.corpus import (
    CorpusError,
    entry_name,
    iter_corpus,
    save_counterexample,
)
from strategies.queries import (
    estimate_bodies,
    fuzz_settings,
    malformed_texts,
    query_texts,
    vocab_sample,
)
from strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "DETERMINISM_SETTINGS",
    "STANDARD_SETTINGS",
    "CorpusError",
    "entry_name",
    "iter_corpus",
    "save_counterexample",
    "estimate_bodies",
    "fuzz_settings",
    "malformed_texts",
    "query_texts",
    "vocab_sample",
]
