"""SLO accounting for replay runs: latency percentiles + error budget.

The driver hands every request's :class:`RequestOutcome` to
:func:`build_report`, which turns them into an :class:`SLOReport` — the
JSON-ready record ``repro replay run --report`` writes and CI uploads.
Latency is measured from the **scheduled arrival time**, not the send
time: in an open-loop run, time a request spends waiting for a free
client connection is server-induced queueing and must count against the
SLO (measuring from send hides overload — coordinated omission).

:class:`SLO` declares the budget; :meth:`SLOReport.evaluate` renders
the verdict (``ok`` / ``violated`` plus the violated clauses), so a
caller gates with one assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class RequestOutcome:
    """Terminal result of one scheduled request.

    ``status`` is the final HTTP status; 0 means the request never got
    an HTTP answer (transport error, or the client-side deadline
    expired before a response).
    """

    offset_s: float
    status: int
    latency_s: float
    degraded: bool = False
    retries: int = 0
    deadline_missed: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def shed(self) -> bool:
        return self.status == 429


@dataclass
class SLO:
    """The error budget a replay run is gated against."""

    p99_ms: float = 500.0
    p999_ms: Optional[float] = None
    max_shed_rate: float = 0.05
    min_achieved_fraction: float = 0.95
    max_error_rate: float = 0.0  # non-{200,429} responses
    max_deadline_miss_rate: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "max_shed_rate": self.max_shed_rate,
            "min_achieved_fraction": self.min_achieved_fraction,
            "max_error_rate": self.max_error_rate,
            "max_deadline_miss_rate": self.max_deadline_miss_rate,
        }


@dataclass
class SLOReport:
    """What the run measured, plus the budget verdict."""

    offered_rate_qps: float
    duration_s: float
    requests: int
    completed: int  # 200s
    shed: int  # 429s
    errors: int  # non-{200,429}, including transport failures
    degraded: int
    deadline_missed: int
    retries: int
    achieved_rate_qps: float
    latency_ms: Dict[str, float] = field(default_factory=dict)
    status_counts: Dict[str, int] = field(default_factory=dict)
    slo: Optional[dict] = None
    verdict: str = "unevaluated"
    violations: List[str] = field(default_factory=list)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    @property
    def degraded_rate(self) -> float:
        return self.degraded / self.requests if self.requests else 0.0

    @property
    def achieved_fraction(self) -> float:
        if self.offered_rate_qps <= 0:
            return 1.0
        return self.achieved_rate_qps / self.offered_rate_qps

    def evaluate(self, slo: SLO) -> "SLOReport":
        """Fill ``verdict`` / ``violations`` against *slo* (chainable)."""
        self.slo = slo.to_dict()
        violations = []
        p99 = self.latency_ms.get("p99")
        if p99 is not None and p99 > slo.p99_ms:
            violations.append(
                f"p99 {p99:.1f} ms > budget {slo.p99_ms:.1f} ms"
            )
        p999 = self.latency_ms.get("p999")
        if (
            slo.p999_ms is not None
            and p999 is not None
            and p999 > slo.p999_ms
        ):
            violations.append(
                f"p99.9 {p999:.1f} ms > budget {slo.p999_ms:.1f} ms"
            )
        if self.shed_rate > slo.max_shed_rate:
            violations.append(
                f"shed rate {self.shed_rate:.3f} > "
                f"budget {slo.max_shed_rate:.3f}"
            )
        if self.error_rate > slo.max_error_rate:
            violations.append(
                f"error rate {self.error_rate:.3f} > "
                f"budget {slo.max_error_rate:.3f}"
            )
        if self.achieved_fraction < slo.min_achieved_fraction:
            violations.append(
                f"achieved {self.achieved_rate_qps:.1f} qps is "
                f"{self.achieved_fraction:.2f}x offered "
                f"{self.offered_rate_qps:.1f} qps, below "
                f"{slo.min_achieved_fraction:.2f}x"
            )
        if slo.max_deadline_miss_rate is not None and self.requests:
            miss_rate = self.deadline_missed / self.requests
            if miss_rate > slo.max_deadline_miss_rate:
                violations.append(
                    f"deadline miss rate {miss_rate:.3f} > "
                    f"budget {slo.max_deadline_miss_rate:.3f}"
                )
        self.violations = violations
        self.verdict = "ok" if not violations else "violated"
        return self

    def to_dict(self) -> dict:
        return {
            "offered_rate_qps": round(self.offered_rate_qps, 3),
            "achieved_rate_qps": round(self.achieved_rate_qps, 3),
            "achieved_fraction": round(self.achieved_fraction, 4),
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "errors": self.errors,
            "error_rate": round(self.error_rate, 4),
            "degraded": self.degraded,
            "degraded_rate": round(self.degraded_rate, 4),
            "deadline_missed": self.deadline_missed,
            "retries": self.retries,
            "latency_ms": self.latency_ms,
            "status_counts": self.status_counts,
            "slo": self.slo,
            "verdict": self.verdict,
            "violations": list(self.violations),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SLOReport":
        return cls(
            offered_rate_qps=float(payload["offered_rate_qps"]),
            duration_s=float(payload["duration_s"]),
            requests=int(payload["requests"]),
            completed=int(payload["completed"]),
            shed=int(payload["shed"]),
            errors=int(payload["errors"]),
            degraded=int(payload["degraded"]),
            deadline_missed=int(payload["deadline_missed"]),
            retries=int(payload["retries"]),
            achieved_rate_qps=float(payload["achieved_rate_qps"]),
            latency_ms=dict(payload.get("latency_ms", {})),
            status_counts=dict(payload.get("status_counts", {})),
            slo=payload.get("slo"),
            verdict=payload.get("verdict", "unevaluated"),
            violations=list(payload.get("violations", [])),
        )


def build_report(
    outcomes: Sequence[RequestOutcome],
    offered_rate_qps: float,
    duration_s: float,
) -> SLOReport:
    """Aggregate per-request outcomes into an (unevaluated) report."""
    outcomes = list(outcomes)
    completed = [o for o in outcomes if o.ok]
    shed = sum(1 for o in outcomes if o.shed)
    errors = sum(1 for o in outcomes if not o.ok and not o.shed)
    status_counts: Dict[str, int] = {}
    for outcome in outcomes:
        key = str(outcome.status) if outcome.status else "transport"
        status_counts[key] = status_counts.get(key, 0) + 1
    duration = max(float(duration_s), 1e-9)
    latency_ms: Dict[str, float] = {}
    if completed:
        lat = np.array(
            [o.latency_s for o in completed], dtype=np.float64
        )
        latency_ms = {
            "p50": round(float(np.percentile(lat, 50)) * 1e3, 3),
            "p90": round(float(np.percentile(lat, 90)) * 1e3, 3),
            "p99": round(float(np.percentile(lat, 99)) * 1e3, 3),
            "p999": round(float(np.percentile(lat, 99.9)) * 1e3, 3),
            "max": round(float(lat.max()) * 1e3, 3),
        }
    return SLOReport(
        offered_rate_qps=float(offered_rate_qps),
        duration_s=duration,
        requests=len(outcomes),
        completed=len(completed),
        shed=shed,
        errors=errors,
        degraded=sum(1 for o in outcomes if o.degraded),
        deadline_missed=sum(1 for o in outcomes if o.deadline_missed),
        retries=sum(o.retries for o in outcomes),
        achieved_rate_qps=len(completed) / duration,
        latency_ms=latency_ms,
        status_counts=status_counts,
    )


def format_report(report: SLOReport) -> str:
    """Human-readable multi-line rendering (CLI ``replay report``)."""
    lines = [
        f"offered:     {report.offered_rate_qps:.1f} qps over "
        f"{report.duration_s:.1f} s ({report.requests} requests)",
        f"achieved:    {report.achieved_rate_qps:.1f} qps "
        f"({report.achieved_fraction:.2f}x offered, "
        f"{report.completed} completed)",
        f"shed:        {report.shed} (rate {report.shed_rate:.3f})",
        f"errors:      {report.errors} "
        f"(rate {report.error_rate:.3f}) "
        f"statuses {report.status_counts}",
        f"degraded:    {report.degraded} "
        f"(rate {report.degraded_rate:.3f})",
        f"deadline:    {report.deadline_missed} missed, "
        f"{report.retries} retries",
    ]
    if report.latency_ms:
        lines.append(
            "latency:     "
            + "  ".join(
                f"{k}={v:.1f}ms"
                for k, v in report.latency_ms.items()
            )
        )
    lines.append(f"verdict:     {report.verdict}")
    for violation in report.violations:
        lines.append(f"  - {violation}")
    return "\n".join(lines)
