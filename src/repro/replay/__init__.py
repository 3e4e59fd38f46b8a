"""Workload replay, chaos orchestration, and SLO gating.

The resilience harness that composes everything the serving and
maintenance layers ship and asserts SLOs while it all happens at once:

- :mod:`repro.replay.trace`    — recorded-trace format + generators
  (shape mixes, Zipf-skewed popularity, Poisson arrivals),
- :mod:`repro.replay.driver`   — the open-loop driver (arrival schedule
  honored regardless of response lag, keep-alive client pool,
  per-request deadlines, server-derived 429 backoff),
- :mod:`repro.replay.slo`      — p50/p99/p99.9, achieved vs. offered
  rate, shed/degraded/error rates, error-budget verdicts,
- :mod:`repro.replay.timeline` — the scripted chaos DSL
  (``at 5s: kill worker; at 12s: maintain; ...``),
- :mod:`repro.replay.harness`  — the in-process serving stack the
  timeline drives (worker kills, hot reloads, live maintenance,
  checkpoint corruption).

The generative fuzzer's hypothesis strategies and its counterexample
corpus are test support, in ``tests/strategies/``.

CLI surface: ``repro replay record / run / report``.  See
``src/repro/replay/README.md`` for the trace format, the timeline
grammar, and the SLO report fields.
"""

from repro.replay.driver import ReplayDriver
from repro.replay.harness import (
    HarnessError,
    ReplayHarness,
    vocab_preserving_delta,
)
from repro.replay.slo import (
    SLO,
    RequestOutcome,
    SLOReport,
    build_report,
    format_report,
)
from repro.replay.timeline import (
    TimelineError,
    TimelineStep,
    parse_timeline,
    run_timeline,
    start_timeline,
)
from repro.replay.trace import (
    DEFAULT_MIX,
    Trace,
    TraceEvent,
    TraceFormatError,
    covering_shapes,
    generate_trace,
    load_trace,
    parse_mix,
    save_trace,
)

__all__ = [
    "DEFAULT_MIX",
    "HarnessError",
    "ReplayDriver",
    "ReplayHarness",
    "RequestOutcome",
    "SLO",
    "SLOReport",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TimelineError",
    "TimelineStep",
    "build_report",
    "covering_shapes",
    "format_report",
    "generate_trace",
    "load_trace",
    "parse_mix",
    "parse_timeline",
    "run_timeline",
    "save_trace",
    "start_timeline",
    "vocab_preserving_delta",
]
