"""dbt-sources-style freshness: declared max-staleness thresholds.

dbt sources declare ``warn_after`` / ``error_after`` thresholds and a
``dbt source freshness`` run compares them against the source's
last-loaded timestamp.  The estimator equivalent: the checkpoint's
:class:`~repro.maintain.watermark.Watermark` says which graph the
models were materialized against, the live store says what the graph
is now, and the declared thresholds (measured in triples of drift, the
unit that actually moves estimates) classify the gap as pass / warn /
error.  The serving layer surfaces the verdict in ``/healthz``'s
``freshness`` block; ``repro maintain status`` prints the same check
offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.maintain.watermark import Watermark
from repro.rdf.store import TripleStore

FRESHNESS_PASS = "pass"
FRESHNESS_WARN = "warn"
FRESHNESS_ERROR = "error"
FRESHNESS_UNKNOWN = "unknown"


@dataclass(frozen=True)
class FreshnessPolicy:
    """Declared staleness thresholds, in triples of drift.

    ``warn_after=1`` (the default) flags any drift at all — the store
    has moved and the models have not; ``error_after`` marks the point
    where estimates should no longer be trusted.  Mirrors dbt's
    ``freshness: {warn_after: ..., error_after: ...}`` source config.
    """

    warn_after: int = 1
    error_after: int = 10_000

    def __post_init__(self) -> None:
        if self.warn_after < 0 or self.error_after < 0:
            raise ValueError("freshness thresholds must be >= 0")
        if self.error_after < self.warn_after:
            raise ValueError(
                "error_after must be >= warn_after "
                f"({self.error_after} < {self.warn_after})"
            )

    def classify(self, lag_triples: int) -> str:
        if lag_triples >= self.error_after:
            return FRESHNESS_ERROR
        if lag_triples >= self.warn_after:
            return FRESHNESS_WARN
        return FRESHNESS_PASS


@dataclass(frozen=True)
class FreshnessStatus:
    """Verdict of one freshness check, JSON-ready for ``/healthz``."""

    status: str
    model_run: Optional[int]
    model_generation: Optional[int]
    store_generation: int
    model_num_triples: Optional[int]
    store_num_triples: int
    lag_triples: Optional[int]
    vocabulary_ok: Optional[bool]
    warn_after: int
    error_after: int

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "model_run": self.model_run,
            "model_generation": self.model_generation,
            "store_generation": self.store_generation,
            "model_num_triples": self.model_num_triples,
            "store_num_triples": self.store_num_triples,
            "lag_triples": self.lag_triples,
            "vocabulary_ok": self.vocabulary_ok,
            "thresholds": {
                "warn_after": self.warn_after,
                "error_after": self.error_after,
            },
        }


def watermark_from_fingerprint(
    fingerprint: Mapping,
) -> Optional[Watermark]:
    """A degraded watermark recovered from a checkpoint's store
    fingerprint (``artifact.store``).

    Pre-maintenance checkpoints carry no ``watermark.json``; their
    artifact still records the training graph's extent, which is enough
    to measure triple lag.  Run and generation are unknowable from the
    fingerprint alone and report as 0 / -1.
    """
    try:
        checksum = fingerprint.get("dictionary_checksum")
        return Watermark(
            run=0,
            generation=-1,
            num_triples=int(fingerprint["num_triples"]),
            num_nodes=int(fingerprint["num_nodes"]),
            num_predicates=int(fingerprint["num_predicates"]),
            dictionary_checksum=(
                None if checksum is None else str(checksum)
            ),
        )
    except (KeyError, TypeError, ValueError):
        return None


def check_freshness(
    watermark: Optional[Watermark],
    store: TripleStore,
    policy: Optional[FreshnessPolicy] = None,
) -> FreshnessStatus:
    """Classify the gap between *watermark* and the live *store*.

    No watermark at all → ``unknown`` (nothing to measure against).  A
    vocabulary mismatch → ``error`` regardless of triple lag: the
    models cannot even be fine-tuned over it, only rebuilt.  Otherwise
    the absolute triple-count drift (insertions and deletions both
    stale the models) is classified by the declared thresholds.
    """
    policy = policy or FreshnessPolicy()
    if watermark is None:
        return FreshnessStatus(
            status=FRESHNESS_UNKNOWN,
            model_run=None,
            model_generation=None,
            store_generation=int(store.generation),
            model_num_triples=None,
            store_num_triples=len(store),
            lag_triples=None,
            vocabulary_ok=None,
            warn_after=policy.warn_after,
            error_after=policy.error_after,
        )
    lag = abs(len(store) - watermark.num_triples)
    vocabulary_ok = watermark.vocabulary_matches(store)
    status = (
        FRESHNESS_ERROR if not vocabulary_ok else policy.classify(lag)
    )
    return FreshnessStatus(
        status=status,
        model_run=watermark.run,
        model_generation=watermark.generation,
        store_generation=int(store.generation),
        model_num_triples=watermark.num_triples,
        store_num_triples=len(store),
        lag_triples=lag,
        vocabulary_ok=vocabulary_ok,
        warn_after=policy.warn_after,
        error_after=policy.error_after,
    )
