"""Kernel invariants: golden-seed determinism, lazy timers, the heap model.

The golden digests below were captured from the *pre-rework* kernel (the
seed implementation with per-``Event`` ``__lt__`` heap ordering, eager
timer resets and closure-based deliveries).  The current kernel — tuple
-ordered list events, lazy timer rearm, slotted delivery callables — must
reproduce the exact same traces bit for bit: same seeds ⇒ same event
total order ⇒ same measurements.
"""

import hashlib
import random

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.experiments.common import make_policy_factory
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MESSAGE, PRIORITY_TIMER
from repro.sim.loop import EventLoop, SimulationError
from repro.sim.timers import Timer, TimerService

# sha256 of the full trace of a 5-node, seed-42, 5-leader-kill run,
# captured on the seed kernel (see module docstring).
GOLDEN_TRACE_DIGESTS = {
    "raft": "7b845a085f128dc52b7a564b8f0076f808bc4b385b78ba1d3e46d0d119879a6e",
    "dynatune": "4e83b9d18c5bc839edb2f578611ec7e2b21510ffd477fcf3d38cf02c4770b44a",
}


def election_trace_digest(system: str) -> str:
    cluster = build_cluster(
        ClusterConfig(n_nodes=5, seed=42, rtt_ms=100.0, loss=0.0),
        make_policy_factory(system),
    )
    cluster.start()
    harness = ClusterHarness(cluster)
    harness.run_leader_failure_loop(
        5, warmup_ms=8_000.0, sleep_ms=6_000.0, settle_ms=8_000.0
    )
    m = hashlib.sha256()
    for r in cluster.trace.all():
        m.update(f"{r.time!r}|{r.node}|{r.kind}|{sorted(r.fields.items())!r}\n".encode())
    return m.hexdigest()


@pytest.mark.parametrize("system", sorted(GOLDEN_TRACE_DIGESTS))
def test_golden_seed_election_trace(system):
    """Kernel rework preserves the bit-exact event total order."""
    assert election_trace_digest(system) == GOLDEN_TRACE_DIGESTS[system]


def test_same_seed_same_digest_twice():
    """The digest itself is stable run-to-run (no hidden global state)."""
    assert election_trace_digest("raft") == election_trace_digest("raft")


# --------------------------------------------------------------------- #
# lazy timer semantics
# --------------------------------------------------------------------- #


def test_lazy_reset_does_not_touch_heap():
    """Extending resets are attribute writes: the heap must not grow."""
    loop = EventLoop()
    t = Timer(loop, "el", lambda: None)
    t.start(1e9)
    before = loop.pending
    for _ in range(10_000):
        t.reset(1e9)
    assert loop.pending == before  # still the single scheduled event


def test_lazy_reset_fires_at_logical_deadline():
    loop = EventLoop()
    fired = []
    t = Timer(loop, "el", lambda: fired.append(loop.now))
    t.start(10.0)
    for i in range(1, 6):
        loop.schedule(2.0 * i, lambda: t.reset(10.0))
    loop.run()
    assert fired == [20.0]  # last reset at 10 + duration 10


def test_stale_event_rearms_not_fires():
    """The stale scheduled event must re-arm silently, not invoke the cb."""
    loop = EventLoop()
    fired = []
    t = Timer(loop, "el", lambda: fired.append(loop.now))
    t.start(10.0)
    loop.schedule(5.0, lambda: t.reset(10.0))  # deadline becomes 15
    loop.run_until(10.0)  # the stale event at t=10 fires internally
    assert fired == []
    assert t.running
    assert t.deadline == 15.0
    loop.run_until(20.0)
    assert fired == [15.0]
    assert not t.running


def test_shrinking_reset_rearms_eagerly():
    """A reset to an *earlier* deadline cannot ride the stale event."""
    loop = EventLoop()
    fired = []
    t = Timer(loop, "el", lambda: fired.append(loop.now))
    t.start(100.0)
    t.reset(5.0)
    loop.run()
    assert fired == [5.0]


def test_deadline_and_remaining_track_logical_state():
    loop = EventLoop()
    t = Timer(loop, "el", lambda: None)
    t.start(10.0)
    t.reset(30.0)  # lazy: scheduled event still at 10, deadline at 30
    assert t.deadline == 30.0
    assert t.remaining == 30.0
    loop.run_until(12.0)  # stale event consumed, re-armed at 30
    assert t.deadline == 30.0
    assert t.remaining == pytest.approx(18.0)


def test_freeze_thaw_with_lazy_deadline():
    """TimerService freeze/thaw must capture the *logical* remaining time."""
    loop = EventLoop()
    fired = []
    svc = TimerService(loop, "n1")
    t = svc.timer("el", lambda: fired.append(loop.now))
    t.start(10.0)
    loop.run_until(4.0)
    t.reset(10.0)  # deadline 14, stale event still armed for 10
    svc.freeze()
    loop.run_until(50.0)
    assert fired == []
    svc.thaw()  # remaining was 10
    loop.run_until(100.0)
    assert fired == [60.0]


def test_cancel_discards_lazy_deadline():
    loop = EventLoop()
    fired = []
    t = Timer(loop, "el", lambda: fired.append(loop.now))
    t.start(10.0)
    t.reset(30.0)
    assert t.cancel() is True
    loop.run()
    assert fired == []
    assert t.cancel() is False


# --------------------------------------------------------------------- #
# heap size
# --------------------------------------------------------------------- #


def test_timer_reset_storm_keeps_heap_tiny():
    """The benchmark scenario: per-heartbeat resets leave no heap trail."""
    loop = EventLoop()
    t = Timer(loop, "el", lambda: None)
    t.start(1e12)
    for _ in range(100_000):
        t.reset(1e12)
    assert loop.pending <= 2


# --------------------------------------------------------------------- #
# loop execution contracts
# --------------------------------------------------------------------- #


def test_run_is_not_reentrant():
    loop = EventLoop()
    errors = []

    def evil():
        try:
            loop.run()
        except SimulationError as e:
            errors.append(e)

    loop.schedule(1.0, evil)
    loop.run()
    assert len(errors) == 1


def test_step_is_not_reentrant():
    loop = EventLoop()
    errors = []

    def evil():
        try:
            loop.step()
        except SimulationError as e:
            errors.append(e)

    loop.schedule(1.0, evil)
    loop.run()
    assert len(errors) == 1


def test_events_scheduled_mid_run_interleave_correctly():
    """In-run schedules take their place among the events pending at entry."""
    loop = EventLoop()
    fired = []
    loop.schedule(10.0, lambda: fired.append("a"))
    loop.schedule(30.0, lambda: fired.append("c"))

    def inject():
        loop.schedule(5.0, lambda: fired.append("b"))  # lands at t=25

    loop.schedule(20.0, inject)
    loop.run()
    assert fired == ["a", "b", "c"]


def test_zero_delay_chain_mid_run():
    loop = EventLoop()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            loop.schedule(0.0, lambda: chain(n + 1))

    loop.schedule(1.0, lambda: chain(1))
    loop.schedule(1.0, lambda: fired.append("tail"))
    loop.run()
    # Zero-delay events queue after already-pending same-instant events.
    assert fired == [1, "tail", 2, 3]


# --------------------------------------------------------------------- #
# the whole contract against a reference model
# --------------------------------------------------------------------- #


class _ModelLoop:
    """The contract, executably: a list kept sorted by (time, priority, seq)."""

    def __init__(self):
        self.now, self.executed, self._seq, self.queue = 0.0, 0, 0, []

    def schedule(self, delay, callback, *, priority=PRIORITY_MESSAGE):
        return self.schedule_at(self.now + delay, callback, priority=priority)

    def schedule_at(self, time, callback, *, priority=PRIORITY_MESSAGE):
        entry = (float(time), priority, self._seq, callback)
        self._seq += 1
        self.queue.append(entry)
        self.queue.sort(key=lambda e: e[:3])
        return entry

    def cancel(self, entry):
        if entry in self.queue:
            self.queue.remove(entry)

    def next_event_time(self):
        return self.queue[0][0] if self.queue else None

    def step(self):
        if not self.queue:
            return False
        self.now, _, _, callback = self.queue.pop(0)
        self.executed += 1
        callback()
        return True

    def run(self, *, max_events=None):
        return self.run_until(None, max_events=max_events)

    def run_until(self, t, *, max_events=None):
        count = 0
        while self.queue and (t is None or self.queue[0][0] <= t):
            if count == max_events:
                raise SimulationError("max_events")
            count += self.step()
        if t is not None:
            self.now = float(t)
        return count


_DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 5.0)  # few values: ties are common
_PRIORITIES = (PRIORITY_MESSAGE, PRIORITY_CONTROL, PRIORITY_TIMER)


def _drive(loop, cancel, live_pending, seed):
    """One seeded program of top-level and in-callback operations on
    ``loop``; returns everything observable about how it ran."""
    rng = random.Random(seed)
    log, handles = [], []

    def spawn(actions=3):
        ident = len(handles)

        def fire():
            log.append(("fire", ident, loop.now))
            act(rng.randrange(actions))  # < 1 child on average: chains die out

        delay, priority = rng.choice(_DELAYS), rng.choice(_PRIORITIES)
        if rng.random() < 0.5:
            handles.append(loop.schedule(delay, fire, priority=priority))
        else:
            handles.append(loop.schedule_at(loop.now + delay, fire, priority=priority))

    def act(n):
        for _ in range(n):
            r = rng.random()
            if r < 0.5:
                spawn()
            elif r < 0.75 and handles:
                cancel(rng.choice(handles))  # pending, fired or already dead
            elif r < 0.8:  # storm: a burst of corpses under the live events
                first = len(handles)
                for _ in range(150):
                    spawn(actions=1)  # inert when fired
                for h in rng.sample(handles[first:], 130):
                    cancel(h)
            else:
                log.append(("next", loop.next_event_time()))

    for _ in range(120):
        act(rng.randrange(8))
        op = rng.choice(("step", "step", "run_until", "run_until", "bounded", "run"))
        try:
            if op == "step":
                out = loop.step()
            elif op == "run_until":
                limit = rng.choice((None, None, 1, 4, 40))
                out = loop.run_until(loop.now + rng.choice(_DELAYS), max_events=limit)
            elif op == "bounded":
                out = loop.run(max_events=rng.choice((0, 1, 3, 30)))
            else:
                out = loop.run()
        except SimulationError:
            out = "max_events"
        log.append((op, out, loop.now, loop.executed, live_pending()))
    return log


@pytest.mark.parametrize("seed", range(12))
def test_loop_matches_sorted_list_model(seed):
    """Same callbacks in the same order at the same times, same ``now``,
    ``executed`` and live-pending count after every top-level call, and
    the same ``next_event_time()`` wherever a callback asks."""
    real, model = EventLoop(), _ModelLoop()
    got = _drive(
        real,
        lambda h: h.cancel(),
        lambda: sum(not e.cancelled for e in real._heap),
        seed,
    )
    assert got == _drive(model, model.cancel, lambda: len(model.queue), seed)
    assert sum(1 for entry in got if entry[0] == "fire") > 200
