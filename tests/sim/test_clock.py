"""The simulation clock's starting point; NodeClock skew arithmetic."""

import math

import pytest

from repro.sim.clock import MINUTE, MS, SECOND, NodeClock
from repro.sim.loop import EventLoop


def test_starts_at_zero_by_default():
    loop = EventLoop()
    assert loop.now == 0.0 and isinstance(loop.now, float)


def test_unit_constants():
    assert MS == 1.0
    assert SECOND == 1000.0
    assert MINUTE == 60_000.0


def _loop_at(t: float) -> EventLoop:
    loop = EventLoop()
    loop.run_until(t)
    return loop


def test_node_clock_identity_is_bit_exact():
    loop = _loop_at(1234.5678)
    clock = NodeClock(loop)
    assert not clock.skewed
    assert clock.now() is loop.now or clock.now() == loop.now
    assert clock.now() == 1234.5678
    assert clock.scale_duration(300.0) == 300.0
    assert clock.sim_now() == loop.now


def test_node_clock_offset_and_drift():
    loop = _loop_at(1000.0)
    clock = NodeClock(loop)
    clock.set(offset_ms=50.0, drift=0.01)
    assert clock.skewed
    # local = sim + offset + drift * sim
    assert clock.now() == pytest.approx(1000.0 + 50.0 + 10.0)
    assert clock.sim_now() == 1000.0
    # A fast clock experiences its timer early: sim-frame duration shrinks.
    assert clock.scale_duration(101.0) == pytest.approx(100.0)


def test_node_clock_slow_clock_stretches_durations():
    clock = NodeClock(_loop_at(0.0))
    clock.set(drift=-0.5)
    assert clock.scale_duration(100.0) == pytest.approx(200.0)


def test_node_clock_set_reskews_and_restores_identity():
    loop = _loop_at(500.0)
    clock = NodeClock(loop)
    clock.set(offset_ms=-20.0, drift=0.02)
    assert clock.now() == pytest.approx(500.0 - 20.0 + 10.0)
    clock.set()
    assert not clock.skewed
    assert clock.now() == loop.now


def test_node_clock_validation():
    clock = NodeClock(_loop_at(0.0))
    with pytest.raises(ValueError):
        clock.set(drift=-1.0)
    with pytest.raises(ValueError):
        clock.set(drift=float("nan"))
    with pytest.raises(ValueError):
        clock.set(offset_ms=float("nan"))
    with pytest.raises(ValueError):
        clock.set(drift=-2.0)
    # An infinite skew would put ``now()`` at inf and scale every timer
    # to 0 ms, so both signs of infinity are rejected for each field.
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            clock.set(drift=bad)
        with pytest.raises(ValueError):
            clock.set(offset_ms=bad)
    assert not clock.skewed
