"""The unified Estimator protocol every estimator in the repo speaks.

The query optimizer the paper positions LMKG inside calls a cardinality
estimator at very high frequency, so the whole repo — the LMKG framework
façade, the individual learned models, and every baseline — exposes one
batched surface:

    estimate_batch(queries) -> np.ndarray   # the protocol
    estimate(query) -> float                # derived: estimate_batch([q])[0]

:class:`Estimator` is a template, not just an interface.  The public
:meth:`Estimator.estimate_batch` is the single choke point where every
result vector is validated (finite, one value per query) and clamped to
``>= 0.0`` — concrete estimators implement one of two protected hooks and
never re-implement the public method:

- ``_estimate_batch(queries) -> array`` — the vectorized path (one
  featurize + one network forward per batch for the learned models), or
- ``_estimate_one(query) -> float`` — the per-query path; the default
  ``_estimate_batch`` loops it, so synopsis/sampling estimators get the
  batched API for free.

Raw estimates may be negative or garbage (an untrained head, a summary
formula's division) — the clamp lives here precisely so no caller, and no
serving layer, ever has to re-check.  A non-finite value, or a result
vector of the wrong length, is a *bug* in the estimator, and raises
:class:`EstimatorContractError` instead of silently serving NaN.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.rdf.pattern import QueryPattern


class EstimatorContractError(RuntimeError):
    """An estimator violated the protocol (NaN/inf or wrong shape)."""


def finalize_estimates(
    raw, expected: int, name: str = "estimator"
) -> np.ndarray:
    """Validate and clamp one raw batch result (the single clamp site).

    Returns a float64 vector of length *expected* with every value
    ``>= 0.0``; raises :class:`EstimatorContractError` when *raw* has the
    wrong length or contains NaN/inf.
    """
    values = np.asarray(raw, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] != expected:
        raise EstimatorContractError(
            f"{name}: estimate_batch returned shape {values.shape} "
            f"for {expected} queries"
        )
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise EstimatorContractError(
            f"{name}: non-finite estimate {values[bad]!r} "
            f"at index {bad}"
        )
    return np.maximum(values, 0.0)


class Estimator:
    """Base class / protocol for every cardinality estimator.

    Subclasses implement ``_estimate_batch`` (vectorized) or
    ``_estimate_one`` (per-query, looped by the default
    ``_estimate_batch``); callers use only :meth:`estimate_batch` and
    :meth:`estimate`.
    """

    #: short identifier used in result tables ("cset", "wj", "lmkg-s", ...)
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def estimate_batch(
        self, queries: Sequence[QueryPattern]
    ) -> np.ndarray:
        """Validated, non-negative estimates for a batch of queries."""
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        return finalize_estimates(
            self._estimate_batch(queries), len(queries), self.name
        )

    def estimate(self, query: QueryPattern) -> float:
        """Estimated cardinality of one query (non-negative).

        Always ``estimate_batch([query])[0]``: a subclass maintains one
        estimation routine and never overrides this.
        """
        return float(self.estimate_batch([query])[0])

    def memory_bytes(self) -> int:
        """Size of the synopsis/model; 0 when the estimator reads the
        graph directly (sampling approaches)."""
        return 0

    def checkpoint_bytes(self) -> int:
        """Serialized (paper-facing) model size.

        Defaults to :meth:`memory_bytes`; estimators whose in-process
        footprint differs from their checkpoint precision (LMKG-U keeps
        float64 masters plus fused float32 inference caches, but
        checkpoints at float32) override it.
        """
        return self.memory_bytes()

    # ------------------------------------------------------------------
    # Implementation hooks
    # ------------------------------------------------------------------

    def _estimate_batch(
        self, queries: List[QueryPattern]
    ) -> np.ndarray:
        """Raw batch estimates; the default loops :meth:`_estimate_one`."""
        return np.array(
            [self._estimate_one(q) for q in queries], dtype=np.float64
        )

    def _estimate_one(self, query: QueryPattern) -> float:
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _estimate_batch "
            "nor _estimate_one"
        )
