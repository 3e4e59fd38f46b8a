"""The pool's worker lifecycle record, driven with no processes.

:class:`~repro.serve.lifecycle.Lifecycle` is pure: every test here
plays the driver's part by hand — it calls the transitions in the order
:class:`~repro.serve.supervisor.SupervisedPool` does around its spawns,
loads and flips — on plain slot records.
"""

from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve.lifecycle import (
    BUSY,
    DEAD,
    FAILED,
    READY,
    STARTING,
    Lifecycle,
)
from strategies import STANDARD_SETTINGS

OLD = ("snapshot-1", "checkpoint-1")
NEW = ("snapshot-2", "checkpoint-2")


def _slot():
    return SimpleNamespace(
        state=STARTING,
        restarts=0,
        consecutive_failures=0,
        not_before=0.0,
        last_error=None,
    )


def _pool(workers=1, restart_budget=16, backoff_base=0.2):
    """A record whose slots have started on :data:`OLD`, as the pool's
    ``__init__`` leaves them."""
    life = Lifecycle(
        [_slot() for _ in range(workers)], OLD, restart_budget, backoff_base
    )
    slots = life._workers
    assert life.started(slots, None) == OLD
    assert life.started(slots, OLD) is None
    assert all(slot.state == READY for slot in slots)
    return life, slots


def _restart(life, slot, now):
    """Kill a serving *slot* at *now* and tick past its backoff: it is
    starting again.  Returns the tick's time."""
    life.died(slot, now, "killed")
    assert life.tick(slot.not_before - 0.01) == []  # backing off
    assert slot.state == DEAD
    now = slot.not_before
    assert life.tick(now) == [slot]
    assert slot.state == STARTING
    return now


class TestRestartAndReload:
    def test_a_restart_finishing_during_a_reload_is_ready_on_the_serving_pair(
        self,
    ):
        life, (victim, sibling) = _pool(workers=2)
        _restart(life, victim, now=0.0)
        assert life.started([victim], None) == OLD  # it loads OLD
        life.taken(sibling)  # the reload's first round loads NEW into it
        # The restart finishes before the flip: the pool still serves
        # OLD, so the victim is ready on it.
        assert life.started([victim], OLD) is None
        assert victim.state == READY
        assert victim.last_error is None
        # The reload's next round takes the victim too, then flips both.
        life.taken(victim)
        assert life.flipped(NEW) == [victim, sibling]
        assert (life.pair, life.generation) == (NEW, 2)
        assert victim.state == sibling.state == READY

    def test_a_restart_on_the_old_pair_loads_the_new_one_after_the_flip(
        self,
    ):
        life, (victim,) = _pool()
        _restart(life, victim, now=0.0)
        assert life.started([victim], None) == OLD
        # The reload finds no ready worker and flips while the restart
        # is still loading OLD.
        assert life.flipped(NEW) == []
        assert life.generation == 2
        assert life.started([victim], OLD) == NEW
        assert victim.state == STARTING  # not ready on OLD
        assert life.started([victim], NEW) is None
        assert victim.state == READY

    def test_an_aborted_reload_leaves_the_pair_and_generation(self):
        life, (loaded, killed) = _pool(workers=2)
        life.taken(loaded, killed)
        # The driver's abort: the killed worker died, the other answers
        # on its old pair again.  Nothing flipped.
        life.died(killed, 1.0, "worker died while loading")
        life.answered(loaded)
        assert (life.pair, life.generation) == (OLD, 1)
        assert (loaded.state, killed.state) == (READY, DEAD)
        assert life.deaths == 1

    def test_no_slot_becomes_ready_once_the_pool_is_closed(self):
        life, (victim,) = _pool()
        _restart(life, victim, now=0.0)
        life.closed = True
        with pytest.raises(RuntimeError):
            life.started([victim], OLD)
        assert victim.state == STARTING


class TestBudgetAndBackoff:
    def test_budget_exhaustion_fails_the_slot_for_good(self):
        life, (slot,) = _pool(restart_budget=1)
        now = _restart(life, slot, now=0.0)
        life.died(slot, now, "failed to start")
        assert life.tick(slot.not_before) == []
        assert slot.state == FAILED
        assert life.restarts_used == 1
        for now in (10.0, 100.0, 1000.0):
            assert life.tick(now) == []
            assert life.flipped(NEW) == []
            assert slot.state == FAILED
        assert (life.restarts_used, slot.restarts) == (1, 1)

    def test_backoff_doubles_to_its_ceiling_and_an_answer_resets_it(self):
        life, (slot,) = _pool(backoff_base=0.2)
        now, delays = 0.0, []
        life.died(slot, now, "killed")
        for _ in range(7):
            delays.append(slot.not_before - now)
            now = slot.not_before
            assert life.tick(now) == [slot]
            life.died(slot, now, "failed to start")
        assert delays == pytest.approx(
            [0.2, 0.4, 0.8, 1.6, 3.2, Lifecycle.BACKOFF_MAX_S, 5.0]
        )
        now = slot.not_before
        life.tick(now)
        life.started([slot], None)
        life.started([slot], OLD)
        life.taken(slot)
        life.answered(slot)  # a chunk was answered
        assert slot.consecutive_failures == 0
        life.died(slot, now, "killed")
        assert slot.not_before - now == pytest.approx(0.2)

    def test_a_failed_restart_counts_no_death(self):
        life, (slot,) = _pool()
        now = _restart(life, slot, now=0.0)
        assert (life.deaths, life.timeouts) == (1, 0)
        life.died(slot, now, "failed to start", timed_out=True)
        assert (life.deaths, life.timeouts) == (1, 0)
        assert slot.state == DEAD
        assert slot.last_error == "failed to start"

    def test_a_hung_chunk_counts_a_death_and_a_timeout(self):
        life, (slot,) = _pool()
        life.taken(slot)
        life.died(slot, 0.0, "request timeout", timed_out=True)
        assert (life.deaths, life.timeouts) == (1, 1)


class LifecycleMachine(RuleBasedStateMachine):
    """The driver's protocol over the record, with a model beside it.

    The model holds what the record cannot: the pair each worker
    process actually serves, the slots a chunk or a reload holds busy,
    and the clock.  A reload holds the dispatch lock, so chunks and
    reloads never overlap; its take-or-flip round is one rule, as it is
    one ``_state_cv`` hold in the driver.
    """

    WORKERS = 3

    @initialize(
        budget=st.integers(0, 10),
        base=st.sampled_from([0.05, 0.2, 1.0, 4.0]),
    )
    def open_pool(self, budget, base):
        self.life, self.slots = _pool(self.WORKERS, budget, base)
        self.now = 0.0
        self.serves = {id(slot): OLD for slot in self.slots}
        self.failures = {id(slot): 0 for slot in self.slots}
        self.chunks, self.held = set(), set()
        self.reloading = None  # the pair a reload is loading
        self.pairs = 1
        self.generation, self.deaths, self.timeouts = 1, 0, 0
        self.failed = set()

    def _died(self, slot, serving, timed_out=False):
        """Record *slot*'s death and check its backoff."""
        self.life.died(slot, self.now, "died", timed_out)
        self.deaths += serving
        self.timeouts += serving and timed_out
        self.failures[id(slot)] += 1
        backoff = self.life.backoff_base * 2 ** (self.failures[id(slot)] - 1)
        assert slot.state == DEAD
        assert slot.not_before == pytest.approx(
            self.now + min(backoff, Lifecycle.BACKOFF_MAX_S)
        )

    def _answered(self, slot):
        self.life.answered(slot)
        self.failures[id(slot)] = 0

    def _pick(self, data, predicate):
        candidates = [s for s in self.slots if predicate(s)]
        if not candidates:
            return None
        return data.draw(st.sampled_from(candidates))

    # -- time and supervision --------------------------------------------

    @rule(dt=st.floats(0.0, 3.0))
    def tick(self, dt=0.0):
        """The clock moves *dt* and the supervisor ticks."""
        self.now += dt
        dead = [s for s in self.slots if s.state == DEAD]
        due = self.life.tick(self.now)
        for slot in dead:
            if slot.not_before > self.now:
                assert slot.state == DEAD  # still backing off
            else:
                started = any(slot is other for other in due)
                assert slot.state == (STARTING if started else FAILED)
        for slot in due:
            self.serves[id(slot)] = None  # a fresh process holds nothing

    @rule(data=st.data())
    def start_step(self, data):
        """A starting slot's load and flip finished (or it just
        spawned): it is ready, or it loads and flips what it is told."""
        slot = self._pick(data, lambda s: s.state == STARTING)
        if slot is None:
            return
        pair = self.life.started([slot], self.serves[id(slot)])
        if pair is None:
            assert slot.state == READY
        else:
            assert slot.state == STARTING
            self.serves[id(slot)] = pair

    @rule(data=st.data())
    def start_fails(self, data):
        slot = self._pick(data, lambda s: s.state == STARTING)
        if slot is None:
            return
        self._died(slot, serving=False, timed_out=data.draw(st.booleans()))

    @rule(data=st.data())
    def crash_loop(self, data):
        """A dead slot's backoff ends and its restart fails at once."""
        slot = self._pick(data, lambda s: s.state == DEAD)
        if slot is None:
            return
        self.now = max(self.now, slot.not_before)
        self.tick()
        if slot.state == STARTING:
            self._died(slot, serving=False)

    @rule(data=st.data(), timed_out=st.booleans())
    def serving_death(self, data, timed_out):
        """An idle worker dies, or a chunk's worker dies or hangs."""
        slot = self._pick(
            data,
            lambda s: s.state == READY
            or (s.state == BUSY and id(s) in self.chunks),
        )
        if slot is None:
            return
        timed_out = timed_out and slot.state == BUSY  # only a chunk hangs
        self.chunks.discard(id(slot))
        self._died(slot, serving=True, timed_out=timed_out)

    # -- dispatch ----------------------------------------------------------

    @rule(data=st.data())
    @precondition(lambda self: self.reloading is None)
    def take_chunk(self, data):
        slot = self._pick(data, lambda s: s.state == READY)
        if slot is None:
            return
        self.life.taken(slot)
        self.chunks.add(id(slot))

    @rule(data=st.data())
    @precondition(lambda self: self.chunks)
    def answer_chunk(self, data):
        slot = self._pick(data, lambda s: id(s) in self.chunks)
        self.chunks.discard(id(slot))
        self._answered(slot)
        assert slot.state == READY

    # -- reload ------------------------------------------------------------

    @rule()
    @precondition(lambda self: self.reloading is not None or not self.chunks)
    def reload_round(self):
        """Start a reload (once no chunk is in flight), then take the
        ready workers and load the new pair into them, or, with none
        left ready, flip."""
        if self.reloading is None:
            self.pairs += 1
            self.reloading = (f"snapshot-{self.pairs}", f"ckpt-{self.pairs}")
        todo = [s for s in self.slots if s.state == READY]
        self.life.taken(*todo)
        if todo:
            self.held.update(id(s) for s in todo)
            return
        flipped = self.life.flipped(self.reloading)
        assert {id(s) for s in flipped} == self.held
        for slot in flipped:
            self.serves[id(slot)] = self.reloading
            self.failures[id(slot)] = 0  # each replied to its load
        self.generation += 1
        self.reloading, self.held = None, set()

    @rule(data=st.data(), killed=st.booleans())
    @precondition(lambda self: self.reloading is not None and self.held)
    def reload_aborts(self, data, killed):
        """A load failed; if *killed*, one held worker died in it."""
        victim = self._pick(data, lambda s: id(s) in self.held)
        for slot in self.slots:
            if id(slot) not in self.held:
                continue
            if killed and slot is victim:
                self._died(slot, serving=True)
            else:
                self._answered(slot)
        self.reloading, self.held = None, set()

    # -- invariants --------------------------------------------------------

    @invariant()
    def the_budget_holds(self):
        assert self.life.restarts_used <= self.life.restart_budget
        assert self.life.restarts_used == sum(s.restarts for s in self.slots)

    @invariant()
    def a_ready_slot_serves_the_pools_pair(self):
        for slot in self.slots:
            if slot.state == READY:
                assert self.serves[id(slot)] == self.life.pair

    @invariant()
    def failed_is_never_left(self):
        for slot in self.slots:
            if id(slot) in self.failed:
                assert slot.state == FAILED
            elif slot.state == FAILED:
                self.failed.add(id(slot))

    @invariant()
    def the_generation_moves_only_at_a_flip(self):
        assert self.life.generation == self.generation

    @invariant()
    def only_a_serving_slot_counts_a_death(self):
        assert self.life.deaths == self.deaths
        assert self.life.timeouts == self.timeouts

    @invariant()
    def a_live_slot_has_no_error(self):
        for slot in self.slots:
            if slot.state in (READY, BUSY):
                assert slot.last_error is None
            if slot.state in (DEAD, FAILED):
                assert slot.last_error is not None

    @invariant()
    def the_backoff_is_capped(self):
        for slot in self.slots:
            assert slot.not_before - self.now <= Lifecycle.BACKOFF_MAX_S

    @invariant()
    def busy_slots_are_held(self):
        for slot in self.slots:
            held = id(slot) in self.chunks or id(slot) in self.held
            assert (slot.state == BUSY) == held


TestLifecycleMachine = LifecycleMachine.TestCase
TestLifecycleMachine.settings = STANDARD_SETTINGS
