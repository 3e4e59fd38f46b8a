"""The supervised pool's worker lifecycle, as one record of transitions.

:class:`Lifecycle` holds everything the pool decides with: each worker
slot's phase, restart count, backoff deadline and last error; the
restart budget; the (snapshot, checkpoint) pair the pool serves and its
generation; and the restart, death and timeout counters.  Each method
is one event — a slot died, time reached ``now``, a start finished,
ready slots were taken busy, a busy slot answered, a reload flipped —
and updates the record to match.  No method does I/O, takes a lock or
reads a clock: time comes in as an argument.

:class:`~repro.serve.supervisor.SupervisedPool` subclasses the record
and is its driver: it spawns, loads, flips, sends, kills and reaps, and
records what happened through these methods under its ``_state_cv``.
The record's fields are therefore the pool's own attributes
(``pool.restart_budget``, ``pool.deaths``, ...).

A slot is any object with the fields of :class:`Slot`; the pool's
slots add their process and pipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

# Slot phases.
STARTING = "starting"
READY = "ready"
BUSY = "busy"
DEAD = "dead"      # awaiting restart (backoff/budget permitting)
FAILED = "failed"  # permanently out (restart budget exhausted)

#: a (snapshot_dir, checkpoint_dir) pair a worker loads and serves.
Pair = Tuple[str, str]


@dataclass(eq=False)
class Slot:
    """One worker slot's lifecycle fields, as a new slot has them."""

    state: str = STARTING
    #: restarts drawn from the pool's budget for this slot.
    restarts: int = 0
    #: deaths since the slot last answered; sets the backoff.
    consecutive_failures: int = 0
    #: when a dead slot may restart.
    not_before: float = 0.0
    last_error: Optional[str] = None


@dataclass(eq=False)
class Lifecycle:
    """The worker slots of a pool and the policy that moves them.

    Phases: ``starting`` → ``ready`` ⇄ ``busy``; a death from any of
    them → ``dead`` → (backoff, budget) → ``starting`` again, or
    ``failed`` for good once the restart budget is spent.
    """

    #: ceiling of the exponential restart backoff.
    BACKOFF_MAX_S = 5.0

    _workers: List[Slot]
    #: the pair the ready slots serve; it moves only at a flip.
    pair: Pair
    restart_budget: int
    backoff_base: float
    generation: int = 1
    restarts_used: int = 0
    deaths: int = 0
    timeouts: int = 0
    closed: bool = False

    def died(
        self, slot: Slot, now: float, reason: str, timed_out: bool = False
    ) -> None:
        """*slot*'s process is gone at *now*: it died, hung past its
        deadline (*timed_out*), or failed to start.  It is dead until
        ``min(backoff_base * 2**(consecutive_failures - 1),
        BACKOFF_MAX_S)`` has passed.  Only a slot that was serving
        counts as a death; a failed start does not."""
        if slot.state != STARTING:
            self.deaths += 1
            self.timeouts += timed_out
        slot.consecutive_failures += 1
        slot.not_before = now + min(
            self.backoff_base * 2 ** (slot.consecutive_failures - 1),
            self.BACKOFF_MAX_S,
        )
        slot.state = DEAD
        slot.last_error = reason

    def tick(self, now: float) -> List[Slot]:
        """Time reached *now*: each dead slot whose backoff has ended
        draws a restart from the budget and starts, or, once the budget
        is spent, fails for good.  Returns the slots to start."""
        due = []
        for slot in self._workers:
            if slot.state != DEAD or slot.not_before > now:
                continue
            if self.restarts_used >= self.restart_budget:
                slot.state = FAILED
                continue
            self.restarts_used += 1
            slot.restarts += 1
            slot.state = STARTING
            due.append(slot)
        return due

    def started(
        self, slots: Sequence[Slot], pair: Optional[Pair]
    ) -> Optional[Pair]:
        """Starting *slots* serve *pair* (None: spawned, nothing loaded).

        They are ready, and this returns None, only if *pair* is the
        pool's pair: a reload that flipped while they loaded did not
        load them.  Otherwise returns the pool's pair, which they must
        load and flip to next.  Once the pool is closed no slot becomes
        ready again: this raises.
        """
        if self.closed:
            raise RuntimeError("the pool is closed")
        if pair != self.pair:
            return self.pair
        for slot in slots:
            slot.state = READY
            slot.last_error = None
        return None

    def taken(self, *slots: Slot) -> None:
        """Ready *slots* were given a chunk, or a pair to load: nothing
        else uses them until they answer."""
        for slot in slots:
            slot.state = BUSY

    def answered(self, slot: Slot) -> None:
        """Busy *slot* replied: it is ready, and its backoff starts over."""
        slot.consecutive_failures = 0
        slot.state = READY

    def flipped(self, pair: Pair) -> List[Slot]:
        """A reload that loaded *pair* into every busy slot, and left no
        slot ready on the old pair, flipped: *pair* becomes the pool's
        pair, the generation moves, and the busy slots answer on it.
        Returns them."""
        self.pair = pair
        self.generation += 1
        loaded = [slot for slot in self._workers if slot.state == BUSY]
        for slot in loaded:
            self.answered(slot)
        return loaded
