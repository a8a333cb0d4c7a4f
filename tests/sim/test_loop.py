"""EventLoop: ordering, cancellation, run_until semantics."""

import functools
import math

import pytest

from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MESSAGE, PRIORITY_TIMER
from repro.sim.loop import EventLoop, SimulationError


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(30.0, lambda: fired.append("c"))
    loop.schedule(10.0, lambda: fired.append("a"))
    loop.schedule(20.0, lambda: fired.append("b"))
    loop.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(12.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [12.5]
    assert loop.now == 12.5


def test_fifo_order_for_simultaneous_events():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule(5.0, lambda i=i: fired.append(i))
    loop.run()
    assert fired == list(range(10))


def test_priority_breaks_ties_before_seq():
    # A message and a timer at the same instant: message first — this is
    # the reset-before-expire rule Raft heartbeats rely on.
    loop = EventLoop()
    fired = []
    loop.schedule(5.0, lambda: fired.append("timer"), priority=PRIORITY_TIMER)
    loop.schedule(5.0, lambda: fired.append("msg"), priority=PRIORITY_MESSAGE)
    loop.run()
    assert fired == ["msg", "timer"]


def test_zero_delay_runs_after_current_event():
    loop = EventLoop()
    fired = []

    def outer():
        loop.schedule(0.0, lambda: fired.append("inner"))
        fired.append("outer")

    loop.schedule(1.0, outer)
    loop.run()
    assert fired == ["outer", "inner"]
    assert loop.now == 1.0


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-0.001, lambda: None)


def test_nan_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule(math.inf, lambda: None)
    assert loop.pending == 0


def test_every_fires_periodically_at_control_priority_until_the_bound():
    loop = EventLoop()
    fired = []
    loop.schedule(20.0, lambda: fired.append(("timer", 20.0)), priority=PRIORITY_TIMER)
    loop.every(10.0, lambda: fired.append(("tick", loop.now)))
    loop.schedule(20.0, lambda: fired.append(("msg", 20.0)))
    loop.run_until(35.0)
    # At 20 ms: the message, then the tick, then the timer scheduled first.
    assert fired == [
        ("tick", 10.0),
        ("msg", 20.0),
        ("tick", 20.0),
        ("timer", 20.0),
        ("tick", 30.0),
    ]
    assert loop.pending == 1  # the next tick, armed after the last call


@pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), math.inf])
def test_every_rejects_non_positive_interval(interval):
    with pytest.raises(SimulationError):
        EventLoop().every(interval, lambda: None)


def test_schedule_at_in_past_rejected():
    loop = EventLoop()
    loop.schedule(10.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(5.0, lambda: None)


def test_schedule_at_nan_rejected():
    loop = EventLoop()
    fired = []
    with pytest.raises(SimulationError):
        loop.schedule_at(float("nan"), lambda: fired.append(loop.now))
    with pytest.raises(SimulationError):
        loop.schedule_at(math.inf, lambda: fired.append(loop.now))
    loop.run()
    assert fired == []


def test_cancel_prevents_execution():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(5.0, lambda: fired.append(1))
    assert handle.cancel() is True
    loop.run()
    assert fired == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.schedule(5.0, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False


def test_step_returns_false_when_empty():
    assert EventLoop().step() is False


def test_step_executes_exactly_one_event():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(2.0, lambda: fired.append(2))
    assert loop.step() is True
    assert fired == [1]


def test_run_until_executes_boundary_inclusive():
    loop = EventLoop()
    fired = []
    loop.schedule(10.0, lambda: fired.append("on"))
    loop.schedule(10.0001, lambda: fired.append("after"))
    loop.run_until(10.0)
    assert fired == ["on"]
    assert loop.now == 10.0


def test_run_until_advances_clock_without_events():
    loop = EventLoop()
    loop.run_until(42.0)
    assert loop.now == 42.0


def test_run_until_int_target_keeps_clock_float():
    loop = EventLoop()
    loop.run_until(5000)
    assert isinstance(loop.now, float)
    assert repr(loop.now) == "5000.0"


def test_run_until_past_rejected():
    loop = EventLoop()
    loop.run_until(10.0)
    with pytest.raises(SimulationError):
        loop.run_until(5.0)


def test_run_until_nan_rejected():
    # A self-re-arming chain keeps live events due forever: a NaN horizon
    # that slipped past the guard would run it until max_events.
    loop = EventLoop()
    ticks = []
    loop.every(1.0, lambda: ticks.append(loop.now))
    with pytest.raises(SimulationError):
        loop.run_until(float("nan"), max_events=100)
    assert ticks == []
    assert loop.now == 0.0
    # Nor is infinity a horizon: the clock would end at inf.
    idle = EventLoop()
    with pytest.raises(SimulationError):
        idle.run_until(math.inf)
    assert idle.now == 0.0


def test_run_max_events_guard():
    loop = EventLoop()

    def reschedule():
        loop.schedule(1.0, reschedule)

    loop.schedule(1.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        loop.run(max_events=100)


def test_run_exactly_max_events_is_fine():
    loop = EventLoop()
    for _ in range(5):
        loop.schedule(1.0, lambda: None)
    assert loop.run(max_events=5) == 5


def test_run_one_over_max_events_raises():
    loop = EventLoop()
    for _ in range(6):
        loop.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        loop.run(max_events=5)


def test_run_until_exactly_max_events_is_fine():
    # run() and run_until() share the boundary: exactly max_events within
    # the bound is not an error.
    loop = EventLoop()
    for i in range(5):
        loop.schedule(float(i), lambda: None)
    loop.schedule(100.0, lambda: None)  # beyond the bound: doesn't count
    assert loop.run_until(10.0, max_events=5) == 5


def test_run_until_one_over_max_events_raises():
    loop = EventLoop()
    for i in range(6):
        loop.schedule(float(i), lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        loop.run_until(10.0, max_events=5)


def test_next_event_time_is_exact_mid_run():
    # The heap is the whole pending set at every instant, so a callback
    # gets the same answer it would get between runs: the earliest live
    # event, whether it was pending at entry or scheduled mid-run.
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append(loop.next_event_time()))
    dead = loop.schedule(2.0, lambda: None)
    loop.schedule(3.0, lambda: seen.append(loop.next_event_time()))
    loop.schedule(9.0, lambda: seen.append(loop.next_event_time()))
    dead.cancel()

    def inject():
        loop.schedule(0.5, lambda: None)  # lands at t=3.5, before the 9.0
        seen.append(loop.next_event_time())

    loop.schedule(3.0, inject)
    loop.run()
    assert seen == [3.0, 3.0, 3.5, None]


def test_executed_counter():
    loop = EventLoop()
    for _ in range(5):
        loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.executed == 5


def test_next_event_time_skips_cancelled():
    loop = EventLoop()
    h = loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    h.cancel()
    assert loop.next_event_time() == 2.0


def test_next_event_time_empty():
    assert EventLoop().next_event_time() is None


def test_events_scheduled_during_run_until_within_bound_execute():
    loop = EventLoop()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            loop.schedule(1.0, lambda: chain(n + 1))

    loop.schedule(1.0, lambda: chain(1))
    loop.run_until(3.5)
    assert fired == [1, 2, 3]
    loop.run_until(10.0)
    assert fired == [1, 2, 3, 4, 5]



#: (delay, priority) pairs with many ties on both, for the twin-loop pin.
_TWIN_PLAN = [
    (float(i % 4) * 1.5, (PRIORITY_MESSAGE, PRIORITY_CONTROL, PRIORITY_TIMER)[i * 7 % 3])
    for i in range(60)
]


def _drive_twin(push):
    """Run ``_TWIN_PLAN`` through ``push(loop, delay, callback, priority)``:
    once from time 0, then once more from inside each first-round callback
    (a later ``now``).  Returns each event's (time, priority, seq) and the
    order the callbacks ran in."""
    loop = EventLoop()
    keys: list[tuple] = []
    ran: list[int] = []

    def fire(tag):
        ran.append(tag)
        if tag < len(_TWIN_PLAN):
            delay, priority = _TWIN_PLAN[tag]
            event = push(loop, delay, functools.partial(fire, tag + len(_TWIN_PLAN)), priority)
            keys.append(tuple(event[:3]))

    for i, (delay, priority) in enumerate(_TWIN_PLAN):
        keys.append(tuple(push(loop, delay, functools.partial(fire, i), priority)[:3]))
    loop.run()
    return keys, ran


def test_schedule_matches_push_event_on_a_twin_loop():
    """``schedule`` inlines ``_push_event``; pin the two together: the same
    stream of events gets the same (time, priority, seq) on twin loops, and
    the callbacks run in the same order."""
    keys, ran = _drive_twin(lambda loop, d, cb, p: loop.schedule(d, cb, priority=p))
    ref_keys, ref_ran = _drive_twin(
        lambda loop, d, cb, p: loop._push_event(loop.now + d, cb, p)
    )
    assert keys == ref_keys
    assert ran == ref_ran
    assert len(ran) == 2 * len(_TWIN_PLAN)
    assert len({k[:2] for k in keys}) < len(keys)  # ties were exercised
