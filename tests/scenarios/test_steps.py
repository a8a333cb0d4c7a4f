"""Scenario steps: validation, repeat expansion, dict/JSON round-trips."""

import math

import pytest

from repro.scenarios.steps import (
    STEP_TYPES,
    BlockLink,
    Churn,
    Crash,
    DiskFault,
    Flap,
    GrayLink,
    Heal,
    Partition,
    Pause,
    Recover,
    Repeat,
    SetClock,
    SetLoss,
    SetRtt,
    step_from_dict,
)

#: What a reproducer's JSON can carry that no time may be.
NON_FINITE = (math.nan, math.inf, -math.inf)


# -- validation ------------------------------------------------------------ #


def test_repeat_validation():
    with pytest.raises(ValueError):
        Repeat(every_ms=0.0, times=2)
    with pytest.raises(ValueError):
        Repeat(every_ms=100.0, times=0)
    for every_ms in NON_FINITE:
        with pytest.raises(ValueError, match="every_ms"):
            Repeat(every_ms=every_ms, times=2)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        SetRtt(at_ms=-1.0, rtt_ms=50.0)
    for at_ms in NON_FINITE:
        with pytest.raises(ValueError, match="at_ms"):
            SetRtt(at_ms=at_ms, rtt_ms=50.0)


def test_set_rtt_validation():
    with pytest.raises(ValueError):
        SetRtt(at_ms=0.0, rtt_ms=-5.0)
    with pytest.raises(ValueError):
        SetRtt(at_ms=0.0, rtt_ms=50.0, pair=("a",))
    for rtt_ms in NON_FINITE:
        with pytest.raises(ValueError, match="rtt_ms"):
            SetRtt(at_ms=0.0, rtt_ms=rtt_ms)


def test_set_loss_validation():
    with pytest.raises(ValueError):
        SetLoss(at_ms=0.0, loss=1.5)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(at_ms=0.0, groups=())
    with pytest.raises(ValueError):
        Partition(at_ms=0.0, groups=((),))
    with pytest.raises(ValueError):
        Partition(at_ms=0.0, groups=(("",),))


def test_pause_validation():
    with pytest.raises(ValueError):
        Pause(at_ms=0.0, node="n1", duration_ms=0.0)
    with pytest.raises(ValueError):
        Pause(at_ms=0.0, node="", duration_ms=10.0)
    for duration_ms in NON_FINITE:
        with pytest.raises(ValueError, match="duration_ms"):
            Pause(at_ms=0.0, node="n1", duration_ms=duration_ms)


def test_flap_period_must_exceed_down():
    with pytest.raises(ValueError):
        Flap(at_ms=0.0, a="x", b="y", down_ms=500.0, repeat=Repeat(500.0, 3))


def test_churn_validation():
    with pytest.raises(ValueError):
        Churn(at_ms=0.0, nodes=(), down_ms=100.0)
    with pytest.raises(ValueError):
        Churn(at_ms=0.0, nodes=("a",), down_ms=100.0, fault="nuke")
    for down_ms in NON_FINITE:
        with pytest.raises(ValueError, match="down_ms"):
            Churn(at_ms=0.0, nodes=("a",), down_ms=down_ms)


# -- repeat expansion and extents ------------------------------------------ #


def test_disk_fault_validation():
    with pytest.raises(ValueError):
        DiskFault(at_ms=0.0, node="a", p_crash_point=1.5)
    with pytest.raises(ValueError):
        DiskFault(at_ms=0.0, node="a", p_bitflip=-0.1)
    with pytest.raises(ValueError):
        DiskFault(at_ms=0.0, node="a", duration_ms=-1.0)
    # NaN used to pass, and a NaN window is a permanent one.
    for duration_ms in NON_FINITE:
        with pytest.raises(ValueError, match="duration_ms"):
            DiskFault(at_ms=0.0, node="a", duration_ms=duration_ms)


def test_link_and_clock_steps_reject_non_finite_times():
    for value in NON_FINITE:
        with pytest.raises(ValueError, match="down_ms"):
            Flap(at_ms=0.0, a="x", b="y", down_ms=value)
        with pytest.raises(ValueError, match="duration_ms"):
            BlockLink(at_ms=0.0, a="x", b="y", duration_ms=value)
        with pytest.raises(ValueError, match="duration_ms"):
            GrayLink(at_ms=0.0, a="x", b="y", loss=0.5, duration_ms=value)
        with pytest.raises(ValueError, match="one_way_ms"):
            GrayLink(at_ms=0.0, a="x", b="y", one_way_ms=value)
        with pytest.raises(ValueError, match="offset_ms"):
            SetClock(at_ms=0.0, node="x", offset_ms=value)
    with pytest.raises(ValueError, match="drift"):
        SetClock(at_ms=0.0, node="x", drift=math.inf)
    SetClock(at_ms=0.0, node="x", offset_ms=-250.0)  # a clock may run behind


def test_occurrence_times_without_repeat():
    assert SetRtt(at_ms=100.0, rtt_ms=50.0).occurrence_times() == [100.0]


def test_occurrence_times_with_repeat():
    step = Heal(at_ms=1000.0, repeat=Repeat(every_ms=500.0, times=3))
    assert step.occurrence_times() == [1000.0, 1500.0, 2000.0]


def test_extent_includes_effect_duration():
    pause = Pause(at_ms=1000.0, node="n1", duration_ms=700.0)
    assert pause.extent_ms == 1700.0
    flap = Flap(at_ms=0.0, a="x", b="y", down_ms=300.0, repeat=Repeat(1000.0, 2))
    assert flap.extent_ms == 1300.0
    churn = Churn(at_ms=500.0, nodes=("a", "b"), down_ms=400.0)
    assert churn.extent_ms == 900.0


# -- serialization --------------------------------------------------------- #

ALL_STEPS = [
    SetRtt(at_ms=10.0, rtt_ms=200.0),
    SetRtt(at_ms=10.0, rtt_ms=200.0, pair=("a", "b")),
    SetLoss(at_ms=20.0, loss=0.1, pair=("a", "c"), repeat=Repeat(50.0, 2)),
    Partition(at_ms=30.0, groups=(("a", "b"), ("c",))),
    Heal(at_ms=40.0),
    Pause(at_ms=50.0, node="@leader", duration_ms=300.0, trace_kind="fault_leader_pause"),
    Crash(at_ms=60.0, node="a"),
    Recover(at_ms=70.0, node="a"),
    Flap(at_ms=80.0, a="a", b="b", down_ms=100.0, repeat=Repeat(400.0, 5)),
    Churn(at_ms=90.0, nodes=("a", "b", "c"), down_ms=250.0, fault="pause"),
    DiskFault(
        at_ms=100.0,
        node="a",
        p_crash_point=0.2,
        p_torn_tail=0.5,
        duration_ms=4000.0,
    ),
]


@pytest.mark.parametrize("step", ALL_STEPS, ids=lambda s: s.kind)
def test_dict_round_trip(step):
    data = step.to_dict()
    clone = step_from_dict(data)
    assert clone == step
    assert clone.to_dict() == data


def test_round_trip_survives_json_lists():
    """JSON turns tuples into lists; from_dict must coerce them back."""
    import json

    step = Partition(at_ms=5.0, groups=(("a", "@leader"), ("b",)))
    clone = step_from_dict(json.loads(json.dumps(step.to_dict())))
    assert clone == step


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown step kind"):
        step_from_dict({"kind": "meteor_strike", "at_ms": 0.0})


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        step_from_dict({"kind": "heal", "at_ms": 0.0, "vigor": 9})


def test_from_dict_requires_kind():
    with pytest.raises(ValueError, match="kind"):
        step_from_dict({"at_ms": 0.0})


def test_registry_covers_the_vocabulary():
    assert set(STEP_TYPES) == {
        "set_rtt",
        "set_loss",
        "partition",
        "heal",
        "pause",
        "crash",
        "recover",
        "flap",
        "block_link",
        "gray_link",
        "set_clock",
        "set_duplicate",
        "churn",
        "add_node",
        "remove_node",
        "replace_node",
        "disk_fault",
    }


def test_unknown_dynamic_selector_fails_at_construction():
    with pytest.raises(ValueError, match="unknown dynamic selector"):
        Pause(at_ms=0.0, node="@ledaer", duration_ms=100.0)
    with pytest.raises(ValueError, match="unknown dynamic selector"):
        Partition(at_ms=0.0, groups=(("@follower",),))
