"""Deterministic fault injection for the serving chaos suite.

A fault-tolerance guarantee that is never exercised is aspirational;
:class:`FaultInjector` makes the serving layer's guarantees testable by
injecting the failure modes a production fleet actually hits, on a
deterministic counter-based schedule (no RNG — a chaos test that flakes
teaches nothing):

- **worker kills** (``kill_every``): the worker process calls
  ``os._exit`` mid-request — a segfaulting BLAS, an OOM kill;
- **hangs** (``hang_every``): the worker sleeps past the supervisor's
  per-request timeout — a deadlocked thread, a stuck NFS read;
- **response delays** (``delay_ms``): uniform slowdown for latency and
  timeout-margin testing;
- **model-path failures** (``fail_every``): the in-process backend
  raises — an assertion deep in the model, a poisoned cache — which is
  what drives the circuit breaker to degraded mode;
- **poison queries** (``poison_predicate``): any query touching one
  designated predicate raises, modelling an input that reproducibly
  crashes the model while every other query is fine (the scheduler's
  per-request isolation must contain it).

Counters are per-injector (= per worker process, or per in-process
backend), so "every Nth request" is exact regardless of interleaving.

:func:`corrupt_checkpoint` is the flip side for artifact testing:
deterministic on-disk damage (truncated weights, a garbage artifact, a
schema version from the future) that the artifact gate must reject with
a typed error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union


class InjectedFault(RuntimeError):
    """An exception raised on purpose by the fault injector."""


class FaultSpecError(ValueError):
    """A fault spec that cannot be parsed or is self-contradictory."""


@dataclass(frozen=True)
class FaultSpec:
    """Config-driven fault plan (all counters 0 / None = disabled).

    ``*_every`` fields count **requests seen by one injector**: a worker
    with ``kill_every=5`` exits on its 5th, (would-be) 10th, ... request.
    """

    kill_every: int = 0
    hang_every: int = 0
    hang_s: float = 30.0
    delay_ms: float = 0.0
    fail_every: int = 0
    poison_predicate: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("kill_every", "hang_every", "fail_every"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"{name} must be >= 0")
        if self.delay_ms < 0 or self.hang_s < 0:
            raise FaultSpecError("delays must be >= 0")

    @property
    def enabled(self) -> bool:
        return bool(
            self.kill_every
            or self.hang_every
            or self.delay_ms
            or self.fail_every
            or self.poison_predicate is not None
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, spec: Optional[dict]) -> "FaultSpec":
        if spec is None:
            return cls()
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise FaultSpecError(
                f"unknown fault spec field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**spec)

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultSpecError(f"fault spec is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultSpecError("fault spec must be a JSON object")
        return cls.from_dict(payload)


class FaultInjector:
    """Applies a :class:`FaultSpec` on a deterministic request counter.

    One injector lives in each worker process (created from the spec
    shipped with the worker args) and one in each in-process backend;
    ``on_request(queries)`` is called once per estimation request/chunk
    *before* the model runs.
    """

    def __init__(self, spec: Optional[FaultSpec] = None) -> None:
        self.spec = spec or FaultSpec()
        self.requests_seen = 0

    def on_request(self, queries: Sequence = ()) -> None:
        """Apply due faults; may exit the process, sleep, or raise."""
        spec = self.spec
        if not spec.enabled:
            return
        self.requests_seen += 1
        n = self.requests_seen
        if spec.poison_predicate is not None and any(
            tp.p == spec.poison_predicate
            for query in queries
            for tp in getattr(query, "triples", ())
        ):
            raise InjectedFault(
                f"poison query: predicate {spec.poison_predicate}"
            )
        if spec.kill_every and n % spec.kill_every == 0:
            # A hard exit, not an exception: models the worker dying
            # (OOM kill, native crash) with no chance to answer.
            os._exit(13)
        if spec.hang_every and n % spec.hang_every == 0:
            time.sleep(spec.hang_s)
        if spec.delay_ms:
            time.sleep(spec.delay_ms / 1000.0)
        if spec.fail_every and n % spec.fail_every == 0:
            raise InjectedFault(
                f"injected model-path failure (request {n})"
            )


#: recognised :func:`corrupt_checkpoint` modes.
CORRUPTION_MODES = (
    "truncate-model",
    "garbage-artifact",
    "future-schema",
)


def corrupt_checkpoint(
    path: Union[str, Path], mode: str = "truncate-model"
) -> Path:
    """Deterministically damage a checkpoint directory (tests/chaos).

    - ``truncate-model``: cut the first model ``.npz`` in half — the
      artifact gate's content checksum must catch it;
    - ``garbage-artifact``: overwrite ``artifact.json`` with non-JSON;
    - ``future-schema``: rewrite ``artifact.json`` claiming a schema
      version this reader does not support (roll-forward from a newer
      fleet) — must be rejected as *incompatible*, not corrupt.

    Returns the damaged file's path.
    """
    path = Path(path)
    if mode == "truncate-model":
        models = sorted(path.glob("model_*.npz"))
        if not models:
            raise FileNotFoundError(f"no model files under {path}")
        data = models[0].read_bytes()
        models[0].write_bytes(data[: max(1, len(data) // 2)])
        return models[0]
    if mode == "garbage-artifact":
        target = path / "artifact.json"
        target.write_text("{definitely not json\n")
        return target
    if mode == "future-schema":
        # The reader checks the version before anything else, so the
        # rest of a future record is irrelevant.
        target = path / "artifact.json"
        target.write_text(json.dumps({"schema_version": 999}) + "\n")
        return target
    raise ValueError(
        f"unknown corruption mode {mode!r}; known: {CORRUPTION_MODES}"
    )
