"""Timer and TimerService: reset semantics and freeze/thaw."""

import math

import pytest

from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MESSAGE
from repro.sim.loop import EventLoop, SimulationError
from repro.sim.timers import DeadlineQueue, Timer, TimerService


@pytest.fixture
def loop():
    return EventLoop()


def test_timer_fires_once(loop):
    fired = []
    t = Timer(loop, "t", lambda: fired.append(loop.now))
    t.start(10.0)
    loop.run()
    assert fired == [10.0]
    assert not t.running


def test_timer_reset_pushes_deadline(loop):
    fired = []
    t = Timer(loop, "t", lambda: fired.append(loop.now))
    t.start(10.0)
    loop.schedule(5.0, lambda: t.reset(10.0))
    loop.run()
    assert fired == [15.0]


def test_repeated_resets_like_heartbeats(loop):
    # Reset every 5 ms for 10 rounds; timer of 8 ms must never fire until
    # resets stop.
    fired = []
    t = Timer(loop, "election", lambda: fired.append(loop.now))
    t.start(8.0)
    for i in range(1, 11):
        loop.schedule(5.0 * i, lambda: t.reset(8.0))
    loop.run()
    assert fired == [58.0]  # last reset at 50 + 8


def test_start_while_running_rejected(loop):
    t = Timer(loop, "t", lambda: None)
    t.start(10.0)
    with pytest.raises(SimulationError):
        t.start(10.0)


def test_cancel_stops_expiry(loop):
    fired = []
    t = Timer(loop, "t", lambda: fired.append(1))
    t.start(10.0)
    assert t.cancel() is True
    loop.run()
    assert fired == []
    assert t.cancel() is False


def test_negative_duration_rejected(loop):
    t = Timer(loop, "t", lambda: None)
    with pytest.raises(SimulationError):
        t.start(-1.0)
    with pytest.raises(SimulationError):
        t.reset(math.inf)
    assert not t.running


def test_remaining_and_deadline(loop):
    t = Timer(loop, "t", lambda: None)
    t.start(10.0)
    assert t.deadline == 10.0
    assert t.remaining == 10.0
    loop.schedule(4.0, lambda: None)
    loop.run_until(4.0)
    assert t.remaining == pytest.approx(6.0)
    t.cancel()
    assert t.deadline is None and t.remaining is None


def test_zero_duration_fires_immediately_on_run(loop):
    fired = []
    t = Timer(loop, "t", lambda: fired.append(loop.now))
    t.start(0.0)
    loop.run()
    assert fired == [0.0]


# --------------------------------------------------------------------- #
# TimerService
# --------------------------------------------------------------------- #


def test_service_returns_same_timer_for_name(loop):
    svc = TimerService(loop, "n1")
    a = svc.timer("election", lambda: None)
    b = svc.timer("election", lambda: None)
    assert a is b


def test_service_drop_cancels(loop):
    svc = TimerService(loop, "n1")
    fired = []
    svc.timer("hb", lambda: fired.append(1)).start(5.0)
    svc.drop("hb")
    loop.run()
    assert fired == []
    assert svc.get("hb") is None


def test_freeze_thaw_preserves_remaining(loop):
    svc = TimerService(loop, "n1")
    fired = []
    svc.timer("t", lambda: fired.append(loop.now)).start(10.0)
    loop.run_until(4.0)
    svc.freeze()
    loop.run_until(50.0)  # frozen: nothing fires
    assert fired == []
    svc.thaw()
    loop.run()
    assert fired == [56.0]  # 50 + remaining 6


def test_freeze_twice_rejected(loop):
    svc = TimerService(loop, "n1")
    svc.freeze()
    with pytest.raises(SimulationError):
        svc.freeze()


def test_thaw_without_freeze_rejected(loop):
    svc = TimerService(loop, "n1")
    with pytest.raises(SimulationError):
        svc.thaw()


def test_freeze_skips_idle_timers(loop):
    svc = TimerService(loop, "n1")
    svc.timer("idle", lambda: None)  # never started
    svc.timer("live", lambda: None).start(10.0)
    svc.freeze()
    svc.thaw()
    assert svc.get("idle") is not None
    assert not svc.get("idle").running
    assert svc.get("live").running


def test_cancel_all_clears_frozen_state(loop):
    svc = TimerService(loop, "n1")
    svc.timer("t", lambda: None).start(5.0)
    svc.freeze()
    svc.cancel_all()
    # After cancel_all the service is usable again (crash semantics).
    svc.freeze()
    svc.thaw()


def test_names_sorted(loop):
    svc = TimerService(loop, "n1")
    svc.timer("b", lambda: None)
    svc.timer("a", lambda: None)
    assert svc.names() == ["a", "b"]


# -- DeadlineQueue ---------------------------------------------------------- #


def make_queue(loop, timeout=10.0, priority=PRIORITY_MESSAGE, on_expire=None):
    """A queue whose owner settles tokens by removing them from ``open_``."""
    open_: set = set()
    fired: list = []

    def expire(token):
        open_.discard(token)
        fired.append((loop.now, token))
        if on_expire is not None:
            on_expire(token)

    queue = DeadlineQueue(loop, timeout, expire, open_.__contains__, priority)

    def add(token):
        open_.add(token)
        queue.add(token)

    return queue, add, open_, fired


def test_deadline_queue_keeps_one_event_armed(loop):
    queue, add, _, fired = make_queue(loop)
    for i in range(100):
        loop.schedule(0.01 * i, lambda i=i: add(i))
    loop.run_until(5.0)
    assert loop.pending == 1
    loop.run()
    assert [token for _, token in fired] == list(range(100))
    assert loop.pending == 0


def test_deadline_queue_fires_at_the_stored_float(loop):
    # 0.1 + 0.7 is not the float 0.8: the deadline is now + timeout as
    # computed at add time, never rebuilt from a remaining duration.
    _, add, _, fired = make_queue(loop, timeout=0.7)
    loop.schedule(0.1, lambda: add("a"))
    loop.schedule(0.3, lambda: add("b"))
    loop.run()
    assert fired == [(0.1 + 0.7, "a"), (0.3 + 0.7, "b")]


def test_settled_entries_cost_no_event(loop):
    _, add, open_, fired = make_queue(loop)
    add("first")  # armed at 10.0; settled long before
    open_.discard("first")
    for i in range(50):
        loop.schedule(1.0 + i, lambda i=i: (add(i), open_.discard(i)))
    loop.schedule(55.0, lambda: add("live"))
    before = loop.executed
    loop.run()
    assert fired == [(65.0, "live")]
    # Besides the 51 scheduled adds: at most one (stale) fire per timeout
    # period, not one per entry — 52 with a per-entry schedule.
    assert loop.executed - before - 51 <= 65.0 / 10.0 + 1


def test_stale_fire_rearms_at_the_first_live_deadline(loop):
    _, add, open_, fired = make_queue(loop)
    add("dead")
    loop.schedule(4.0, lambda: add("live"))
    loop.schedule(5.0, lambda: open_.discard("dead"))
    loop.run_until(10.0)  # stale fire at 10.0 re-arms for "live" at 14.0
    assert fired == [] and loop.pending == 1
    loop.run()
    assert fired == [(14.0, "live")]


def test_expire_may_add_and_same_instant_entries_keep_order(loop):
    queue, add, _, fired = make_queue(
        loop, on_expire=lambda token: add(token + 10) if token < 10 else None
    )
    add(1)
    add(2)
    loop.run()
    assert fired == [(10.0, 1), (10.0, 2), (20.0, 11), (20.0, 12)]


def test_deadline_queue_event_priority(loop):
    order = []
    _, add, _, _ = make_queue(
        loop, priority=PRIORITY_CONTROL, on_expire=lambda token: order.append("queue")
    )
    add("x")
    loop.schedule(10.0, lambda: order.append("timer"), priority=PRIORITY_CONTROL + 1)
    loop.schedule(10.0, lambda: order.append("message"), priority=PRIORITY_MESSAGE)
    loop.run()
    assert order == ["message", "queue", "timer"]


def test_deadline_queue_rejects_bad_timeout(loop):
    with pytest.raises(SimulationError):
        DeadlineQueue(loop, -1.0, print, bool, PRIORITY_MESSAGE)
    with pytest.raises(SimulationError):
        DeadlineQueue(loop, float("nan"), print, bool, PRIORITY_MESSAGE)
    with pytest.raises(SimulationError):
        DeadlineQueue(loop, math.inf, print, bool, PRIORITY_MESSAGE)
