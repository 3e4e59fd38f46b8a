"""Benchmark profiles: how much work each experiment run does.

The paper trained on a GPU for hours; the bench suite must finish on a
laptop CPU in minutes.  Profiles trade statistical resolution for time
while keeping every experiment's *structure* identical to the paper's.

Select with the ``REPRO_BENCH_PROFILE`` environment variable:
``quick`` (default, ~3-5 min total — CI-friendly), ``standard``
(~30-45 min), ``full`` (closest to the paper's budgets, an hour or
more).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class BenchProfile:
    """All tunable budgets of the bench suite."""

    name: str
    dataset_scale: float
    query_sizes: Tuple[int, ...]          # paper: (2, 3, 5, 8)
    lmkgu_sizes: Tuple[int, ...]          # sizes LMKG-U models are built for
    per_bucket: int                       # test queries per result bucket
    train_queries_per_shape: int
    lmkgs_hidden: Tuple[int, ...]
    lmkgs_epochs: int
    lmkgu_hidden: Tuple[int, ...]
    lmkgu_epochs: int
    lmkgu_samples: int
    lmkgu_particles: int
    mscn_epochs: int
    mscn_big_samples: int                 # paper: 1000 (MSCN-1k)
    walks_per_run: int
    sampling_runs: int                    # paper: 30


QUICK = BenchProfile(
    name="quick",
    dataset_scale=0.35,
    query_sizes=(2, 3),
    lmkgu_sizes=(2, 3),
    per_bucket=4,
    train_queries_per_shape=300,
    lmkgs_hidden=(128, 128),
    lmkgs_epochs=25,
    lmkgu_hidden=(64, 64),
    lmkgu_epochs=2,
    lmkgu_samples=3_000,
    lmkgu_particles=64,
    mscn_epochs=25,
    mscn_big_samples=200,
    walks_per_run=20,
    sampling_runs=5,
)

STANDARD = BenchProfile(
    name="standard",
    dataset_scale=1.0,
    query_sizes=(2, 3, 5, 8),
    lmkgu_sizes=(2, 3, 5, 8),
    per_bucket=8,
    train_queries_per_shape=900,
    lmkgs_hidden=(256, 256),
    lmkgs_epochs=60,
    lmkgu_hidden=(128, 128),
    lmkgu_epochs=3,
    lmkgu_samples=6_000,
    lmkgu_particles=128,
    mscn_epochs=60,
    mscn_big_samples=1_000,
    walks_per_run=30,
    sampling_runs=10,
)

FULL = BenchProfile(
    name="full",
    dataset_scale=1.0,
    query_sizes=(2, 3, 5, 8),
    lmkgu_sizes=(2, 3, 5, 8),
    per_bucket=15,
    train_queries_per_shape=2_000,
    lmkgs_hidden=(512, 512),
    lmkgs_epochs=200,
    lmkgu_hidden=(256, 256),
    lmkgu_epochs=5,
    lmkgu_samples=20_000,
    lmkgu_particles=256,
    mscn_epochs=100,
    mscn_big_samples=1_000,
    walks_per_run=100,
    sampling_runs=30,
)

_PROFILES = {"quick": QUICK, "standard": STANDARD, "full": FULL}


def active_profile() -> BenchProfile:
    """The profile selected by REPRO_BENCH_PROFILE (default quick)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    profile = _PROFILES.get(name)
    if profile is None:
        raise KeyError(
            f"unknown bench profile {name!r}; one of {sorted(_PROFILES)}"
        )
    return profile
