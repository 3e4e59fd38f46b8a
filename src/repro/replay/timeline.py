"""The chaos timeline DSL: scripted faults fired mid-replay.

A timeline is a tiny script — one step per line (``;`` also separates)
— executed on a wall clock that starts when :func:`run_timeline` is
called, typically in a thread racing an open-loop replay::

    at 5s: kill worker
    at 8s: reload
    at 10s: mutate 500
    at 12s: maintain
    at 15s: corrupt next checkpoint garbage-artifact
    at 16s: mutate 200
    at 17s: maintain

Grammar: ``at <seconds>s: <action> [args...]``.  Actions:

- ``kill worker [N]`` — SIGKILL a supervised worker process (the Nth,
  default the first live one); the pool's supervisor must restart it and
  retry its in-flight chunks on siblings.
- ``reload [checkpoint [snapshot]]`` — ``POST /admin/reload`` (the
  workers load the pair, then flip) with optional explicit artifact
  paths.
- ``mutate N`` — add N vocabulary-preserving triples to the live store
  copy the maintenance runner sees, creating a real delta.
- ``maintain [full]`` — run the incremental
  :class:`~repro.maintain.runner.MaintenanceRunner` and hand the
  published generation to the server's ``/admin/reload``.
- ``corrupt next checkpoint [mode]`` — arm corruption: the *next*
  ``maintain`` publish is corrupted on disk before its reload, which
  the artifact gate must reject (409) while the old generation keeps
  serving.  Modes are
  :data:`repro.serve.faults.CORRUPTION_MODES`.
- ``corrupt checkpoint <dir> [mode]`` — corrupt an explicit checkpoint
  directory immediately, then attempt to reload it (expects the 409).

Execution is **fail-soft**: a step that raises is logged
(``ok: False``) and the storm continues — chaos must never crash the
harness; the caller asserts on the returned log.  Unknown actions and
malformed times are *parse*-time :class:`TimelineError`\\ s, so a typo
fails fast instead of silently never firing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple

from repro.serve.faults import CORRUPTION_MODES


class TimelineError(RuntimeError):
    """A timeline script that cannot be parsed."""


@dataclass(frozen=True)
class TimelineStep:
    """One scheduled action: run ``action(*args)`` at ``t0 + at_s``."""

    at_s: float
    action: str
    args: Tuple[str, ...] = ()


class TimelineContext(Protocol):
    """What a timeline executes against (see ``ReplayHarness``)."""

    def kill_worker(self, index: Optional[int] = None) -> str: ...

    def reload(
        self,
        checkpoint: Optional[str] = None,
        snapshot: Optional[str] = None,
    ) -> str: ...

    def mutate(self, count: int) -> str: ...

    def maintain(self, full: bool = False) -> str: ...

    def corrupt_next_checkpoint(self, mode: str) -> str: ...

    def corrupt_checkpoint(self, path: str, mode: str) -> str: ...


def _parse_time(token: str, lineno: int) -> float:
    token = token.strip()
    if not token.endswith("s"):
        raise TimelineError(
            f"line {lineno}: time must end in 's', got {token!r}"
        )
    try:
        value = float(token[:-1])
    except ValueError:
        raise TimelineError(
            f"line {lineno}: bad time {token!r}"
        )
    if value < 0:
        raise TimelineError(
            f"line {lineno}: time must be >= 0, got {token!r}"
        )
    return value


def _parse_action(
    text: str, lineno: int
) -> Tuple[str, Tuple[str, ...]]:
    words = text.split()
    if not words:
        raise TimelineError(f"line {lineno}: empty action")
    head = words[0]
    if head == "kill":
        if len(words) < 2 or words[1] != "worker" or len(words) > 3:
            raise TimelineError(
                f"line {lineno}: expected 'kill worker [N]'"
            )
        if len(words) == 3:
            try:
                int(words[2])
            except ValueError:
                raise TimelineError(
                    f"line {lineno}: worker index must be an int, "
                    f"got {words[2]!r}"
                )
        return "kill_worker", tuple(words[2:])
    if head == "reload":
        if len(words) > 3:
            raise TimelineError(
                f"line {lineno}: expected "
                "'reload [checkpoint [snapshot]]'"
            )
        return "reload", tuple(words[1:])
    if head == "mutate":
        if len(words) != 2:
            raise TimelineError(
                f"line {lineno}: expected 'mutate N'"
            )
        try:
            count = int(words[1])
        except ValueError:
            raise TimelineError(
                f"line {lineno}: mutate count must be an int, "
                f"got {words[1]!r}"
            )
        if count < 1:
            raise TimelineError(
                f"line {lineno}: mutate count must be >= 1"
            )
        return "mutate", (words[1],)
    if head == "maintain":
        if len(words) == 1:
            return "maintain", ()
        if len(words) == 2 and words[1] == "full":
            return "maintain", ("full",)
        raise TimelineError(
            f"line {lineno}: expected 'maintain [full]'"
        )
    if head == "corrupt":
        if len(words) >= 3 and words[1] == "next" and words[2] == "checkpoint":
            mode = words[3] if len(words) == 4 else CORRUPTION_MODES[0]
            if len(words) > 4:
                raise TimelineError(
                    f"line {lineno}: expected "
                    "'corrupt next checkpoint [mode]'"
                )
            if mode not in CORRUPTION_MODES:
                raise TimelineError(
                    f"line {lineno}: unknown corruption mode {mode!r} "
                    f"(choose from {', '.join(CORRUPTION_MODES)})"
                )
            return "corrupt_next_checkpoint", (mode,)
        if len(words) in (3, 4) and words[1] == "checkpoint":
            mode = words[3] if len(words) == 4 else CORRUPTION_MODES[0]
            if mode not in CORRUPTION_MODES:
                raise TimelineError(
                    f"line {lineno}: unknown corruption mode {mode!r} "
                    f"(choose from {', '.join(CORRUPTION_MODES)})"
                )
            return "corrupt_checkpoint", (words[2], mode)
        raise TimelineError(
            f"line {lineno}: expected 'corrupt next checkpoint [mode]' "
            "or 'corrupt checkpoint <dir> [mode]'"
        )
    raise TimelineError(
        f"line {lineno}: unknown action {head!r} (know: kill worker, "
        "reload, mutate, maintain, corrupt)"
    )


def parse_timeline(script: str) -> List[TimelineStep]:
    """Parse a timeline script into time-ordered steps."""
    steps: List[TimelineStep] = []
    for lineno, raw_line in enumerate(script.splitlines(), start=1):
        for raw in raw_line.split(";"):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith("at "):
                raise TimelineError(
                    f"line {lineno}: step must start with "
                    f"'at <time>s:', got {line!r}"
                )
            rest = line[3:]
            if ":" not in rest:
                raise TimelineError(
                    f"line {lineno}: missing ':' after time in {line!r}"
                )
            time_token, action_text = rest.split(":", 1)
            at_s = _parse_time(time_token, lineno)
            action, args = _parse_action(action_text.strip(), lineno)
            steps.append(TimelineStep(at_s, action, args))
    return sorted(steps, key=lambda step: step.at_s)


def run_timeline(
    steps: List[TimelineStep],
    context: TimelineContext,
    stop_event: Optional[threading.Event] = None,
) -> List[dict]:
    """Execute *steps* on schedule against *context*; returns the log.

    Each log entry records the step, when it actually started relative
    to t0, whether it raised, and the context's detail string.  Setting
    *stop_event* aborts the remaining schedule.
    """
    stop = stop_event or threading.Event()
    t0 = time.monotonic()
    log: List[dict] = []
    for step in steps:
        while True:
            now = time.monotonic()
            if now - t0 >= step.at_s or stop.is_set():
                break
            time.sleep(min(step.at_s - (now - t0), 0.05))
        if stop.is_set():
            break
        entry = {
            "at_s": step.at_s,
            "action": step.action,
            "args": list(step.args),
            "started_s": round(time.monotonic() - t0, 3),
        }
        try:
            if step.action == "kill_worker":
                index = int(step.args[0]) if step.args else None
                detail = context.kill_worker(index)
            elif step.action == "reload":
                detail = context.reload(*step.args)
            elif step.action == "mutate":
                detail = context.mutate(int(step.args[0]))
            elif step.action == "maintain":
                detail = context.maintain(full="full" in step.args)
            elif step.action == "corrupt_next_checkpoint":
                detail = context.corrupt_next_checkpoint(step.args[0])
            elif step.action == "corrupt_checkpoint":
                detail = context.corrupt_checkpoint(*step.args)
            else:  # unreachable after parse, kept for safety
                raise TimelineError(
                    f"unknown action {step.action!r}"
                )
            entry["ok"] = True
            entry["detail"] = detail
        except Exception as exc:  # noqa: BLE001 — chaos is fail-soft
            entry["ok"] = False
            entry["detail"] = f"{type(exc).__name__}: {exc}"
        log.append(entry)
    return log


def start_timeline(
    steps: List[TimelineStep],
    context: TimelineContext,
    stop_event: Optional[threading.Event] = None,
) -> Tuple[threading.Thread, List[dict]]:
    """Run the timeline in a daemon thread; returns (thread, live log).

    The returned list is appended to as steps execute — join the thread
    before reading it for the final verdict."""
    log: List[dict] = []

    def _run() -> None:
        log.extend(run_timeline(steps, context, stop_event))

    thread = threading.Thread(
        target=_run, name="repro-chaos-timeline", daemon=True
    )
    thread.start()
    return thread, log
