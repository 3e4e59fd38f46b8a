"""Synthetic evaluation datasets calibrated to the paper's Table I.

SWDF-like (dense, 171 predicates), LUBM-like (faithful generator
re-implementation, 19 predicates), and YAGO-like (heterogeneous, huge
unique-term domain, 91 predicates).  See DESIGN.md for the substitution
rationale.
"""

from repro.datasets.lubm import LubmProfile, generate_lubm
from repro.datasets.registry import (
    DATASET_NAMES,
    SNAPSHOT_DIR_ENV,
    clear_cache,
    load_dataset,
)
from repro.datasets.snapshot_cache import cache_key, cached_store
from repro.datasets.swdf import generate_swdf
from repro.datasets.yago import generate_yago

__all__ = [
    "LubmProfile",
    "generate_lubm",
    "DATASET_NAMES",
    "SNAPSHOT_DIR_ENV",
    "cache_key",
    "cached_store",
    "clear_cache",
    "load_dataset",
    "generate_swdf",
    "generate_yago",
]
