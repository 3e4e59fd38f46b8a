"""Compound supervised + unsupervised estimation (§VII-B future work).

The paper closes its model analysis with: "a single compound
incorporating a supervised and an unsupervised model, as one model, for
estimating a single query cardinality is currently out of the scope of
this paper and left for future work."  This module builds that compound
from the two trained estimators, with three combination policies:

- ``geometric``: the log-space average of both estimates.  q-error is a
  multiplicative metric, so averaging in log space is the ensemble that
  directly optimises it when the two models' errors are independent.
- ``router``: the static rule of thumb §VII-B itself gives — LMKG-U for
  star queries (it captures term inter-correlations and skew best),
  LMKG-S for chains (where LMKG-U's sample quality degrades).
- ``validated``: measure both models on a held-out validation workload
  per (topology, size) shape and weight each model's log-estimate by its
  inverse validation log-q-error — shapes where one model is clearly
  better lean on that model, shapes where they tie get the geometric
  mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.estimator import Estimator
from repro.core.metrics import q_error
from repro.rdf.pattern import QueryPattern
from repro.sampling.workload import QueryRecord

Shape = Tuple[str, int]

_POLICIES = ("geometric", "router", "validated")


class _Estimator(Protocol):
    def estimate(self, query: QueryPattern) -> float: ...


def _safe_log(estimate: float) -> float:
    """Natural log with a floor at one result (estimates below 1 carry
    no usable signal for a count)."""
    return math.log(max(float(estimate), 1.0))


@dataclass
class ShapeWeights:
    """Per-shape convex weight for the supervised model's log-estimate."""

    supervised: float = 0.5

    @property
    def unsupervised(self) -> float:
        return 1.0 - self.supervised


class CompoundEstimator(Estimator):
    """One estimate from a supervised and an unsupervised LMKG model.

    Args:
        supervised: any estimator with ``estimate`` (typically the
            :class:`~repro.core.framework.LMKG` façade in supervised
            mode or a bare :class:`~repro.core.lmkg_s.LMKGS`).
        unsupervised: the unsupervised counterpart.
        policy: ``"geometric"``, ``"router"``, or ``"validated"``.
        validation: held-out labelled records; required by the
            ``validated`` policy, ignored otherwise.
    """

    name = "lmkg-compound"

    def __init__(
        self,
        supervised: _Estimator,
        unsupervised: _Estimator,
        policy: str = "geometric",
        validation: Optional[Sequence[QueryRecord]] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {_POLICIES}"
            )
        if policy == "validated" and not validation:
            raise ValueError(
                "the 'validated' policy needs a validation workload"
            )
        self.supervised = supervised
        self.unsupervised = unsupervised
        self.policy = policy
        self._weights: Dict[Shape, ShapeWeights] = {}
        if policy == "validated":
            assert validation is not None
            self._calibrate(validation)

    # ------------------------------------------------------------------
    # Calibration (validated policy)
    # ------------------------------------------------------------------

    def _calibrate(self, validation: Sequence[QueryRecord]) -> None:
        """Set per-shape weights from held-out accuracy of both models.

        Weight of the supervised model = its inverse mean log-q-error,
        normalised against the unsupervised model's — the standard
        inverse-loss ensemble weighting, computed per (topology, size).
        """
        by_shape: Dict[Shape, list] = {}
        for record in validation:
            by_shape.setdefault(
                (record.topology, record.size), []
            ).append(record)
        for shape, records in by_shape.items():
            sup_err = self._mean_log_qerror(self.supervised, records)
            uns_err = self._mean_log_qerror(self.unsupervised, records)
            total = sup_err + uns_err
            if total <= 0.0:
                weight = 0.5
            else:
                # Lower error -> higher weight.
                weight = uns_err / total
            self._weights[shape] = ShapeWeights(supervised=weight)

    @staticmethod
    def _mean_log_qerror(
        estimator: _Estimator, records: Sequence[QueryRecord]
    ) -> float:
        errors = []
        for record in records:
            estimate = estimator.estimate(record.query)
            errors.append(
                math.log(q_error(estimate, record.cardinality))
            )
        return float(np.mean(errors)) if errors else 0.0

    def weight_for(self, shape: Shape) -> ShapeWeights:
        """The calibrated weights of one shape (0.5/0.5 when unseen)."""
        return self._weights.get(shape, ShapeWeights())

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def _estimate_one(self, query: QueryPattern) -> float:
        if self.policy == "router":
            model = (
                self.unsupervised
                if query.topology().value == "star"
                else self.supervised
            )
            return float(model.estimate(query))
        sup_log = _safe_log(self.supervised.estimate(query))
        uns_log = _safe_log(self.unsupervised.estimate(query))
        if self.policy == "geometric":
            return math.exp(0.5 * (sup_log + uns_log))
        shape = (query.topology().value, query.size)
        weights = self.weight_for(shape)
        return math.exp(
            weights.supervised * sup_log
            + weights.unsupervised * uns_log
        )

    def memory_bytes(self) -> int:
        """Both underlying models plus the weight table."""
        total = len(self._weights) * 8
        for model in (self.supervised, self.unsupervised):
            reporter = getattr(model, "memory_bytes", None)
            if reporter is not None:
                total += int(reporter())
        return total
