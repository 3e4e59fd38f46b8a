"""Target scaling: log transform followed by min-max normalisation.

LMKG-S first log-scales the cardinalities and then min-max scales them
(Section VI-A), so the sigmoid output head can cover the whole target
range.  The scaler records the fitted bounds so predictions can be mapped
back to cardinalities, and exposes ``span`` — the log-space width the
q-error loss needs.
"""

from __future__ import annotations

import numpy as np


class LogMinMaxScaler:
    """log → [0, 1] affine scaling with exact inversion."""

    def __init__(self) -> None:
        self.log_min: float = 0.0
        self.log_max: float = 1.0
        self._fitted = False

    def fit(self, cardinalities: np.ndarray) -> "LogMinMaxScaler":
        """Fit bounds on raw (unlogged) cardinalities; zeros clamp to 1."""
        values = np.maximum(np.asarray(cardinalities, dtype=np.float64), 1.0)
        logs = np.log(values)
        self.log_min = float(logs.min())
        self.log_max = float(logs.max())
        if self.log_max <= self.log_min:
            # Degenerate all-equal targets; keep a unit span so transform
            # maps everything to 0 and inversion still works.
            self.log_max = self.log_min + 1.0
        self._fitted = True
        return self

    @property
    def span(self) -> float:
        """Width of the log range; q-error exponent scale."""
        self._require_fitted()
        return self.log_max - self.log_min

    def transform(self, cardinalities: np.ndarray) -> np.ndarray:
        """Map raw cardinalities into scaled [0, 1] log space."""
        self._require_fitted()
        values = np.maximum(np.asarray(cardinalities, dtype=np.float64), 1.0)
        return (np.log(values) - self.log_min) / self.span

    def fit_transform(self, cardinalities: np.ndarray) -> np.ndarray:
        return self.fit(cardinalities).transform(cardinalities)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        """Map scaled predictions back to cardinalities (>= 1).

        Predictions are clipped into [0, 1] first: the sigmoid head cannot
        exceed the range, but numerical tests may feed raw values.
        """
        self._require_fitted()
        clipped = np.asarray(scaled, dtype=np.float64).clip(0.0, 1.0)
        return np.exp(clipped * (self.log_max - self.log_min) + self.log_min)

    def state(self) -> dict:
        """Serialisable state for checkpoints."""
        self._require_fitted()
        return {"log_min": self.log_min, "log_max": self.log_max}

    @classmethod
    def from_state(cls, state: dict) -> "LogMinMaxScaler":
        scaler = cls()
        scaler.log_min = float(state["log_min"])
        scaler.log_max = float(state["log_max"])
        scaler._fitted = True
        return scaler

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("scaler used before fit()")
