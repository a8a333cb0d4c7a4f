"""Shrinker: ddmin + simplification against cheap synthetic oracles."""

import copy
import dataclasses
import json
import math

import pytest

from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.oracle import FuzzTrialConfig, TrialResult
from repro.fuzz.shrinker import (
    load_reproducer,
    reproducer_dict,
    shrink,
    write_reproducer,
)
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Crash, Heal, Pause, Repeat, SetRtt


def fake_result(violations=()):
    return TrialResult(
        violations=tuple(violations),
        lin_undecided=False,
        n_ops=0,
        n_completed=0,
        n_open=0,
        steps_applied=0,
        steps_skipped=0,
        first_leader_ms=None,
        duration_ms=0.0,
        lin_configs=0,
    )


def crash_oracle(config, scenario):
    """Fails iff the timeline crashes n1 (everything else is noise)."""
    bad = any(s.kind == "crash" and s.node == "n1" for s in scenario.steps)
    return fake_result(["crashed n1"] if bad else [])


def noisy_scenario():
    return Scenario(
        "noisy",
        [
            SetRtt(at_ms=100.0, rtt_ms=200.0),
            Pause(at_ms=333.3, node="n2", duration_ms=900.0,
                  repeat=Repeat(every_ms=2_000.0, times=5)),
            Crash(at_ms=500.0, node="n1"),
            Heal(at_ms=700.0),
            Pause(at_ms=900.0, node="n3", duration_ms=400.0),
            SetRtt(at_ms=1_100.0, rtt_ms=50.0, pair=("n1", "n2")),
        ],
    )


def test_shrinks_to_single_essential_step():
    result = shrink(FuzzTrialConfig(), noisy_scenario(), oracle=crash_oracle)
    assert result.final_steps == 1
    assert result.scenario.steps[0].kind == "crash"
    assert result.scenario.steps[0].node == "n1"
    assert result.violations == ("crashed n1",)
    assert result.initial_steps == 6


def test_shrink_is_deterministic():
    a = shrink(FuzzTrialConfig(), noisy_scenario(), oracle=crash_oracle)
    b = shrink(FuzzTrialConfig(), noisy_scenario(), oracle=crash_oracle)
    assert a.scenario.to_json() == b.scenario.to_json()
    assert a.evaluations == b.evaluations


def test_shrink_simplifies_surviving_steps():
    def pause_oracle(config, scenario):
        bad = any(s.kind == "pause" for s in scenario.steps)
        return fake_result(["paused"] if bad else [])

    result = shrink(FuzzTrialConfig(), noisy_scenario(), oracle=pause_oracle)
    assert result.final_steps == 1
    (step,) = result.scenario.steps
    assert step.kind == "pause"
    assert step.repeat is None  # repeat dropped by simplification
    assert step.duration_ms <= 900.0
    assert step.at_ms == round(step.at_ms, -2)  # time snapped to the grid


def test_shrink_requires_a_failing_input():
    with pytest.raises(ValueError):
        shrink(FuzzTrialConfig(), noisy_scenario(), oracle=lambda c, s: fake_result())


def test_shrink_respects_eval_budget():
    calls = []

    def counting_oracle(config, scenario):
        calls.append(1)
        return crash_oracle(config, scenario)

    shrink(FuzzTrialConfig(), noisy_scenario(), oracle=counting_oracle, max_evals=10)
    # budget + the final re-verification run
    assert len(calls) <= 11


def test_reproducer_roundtrip_strips_injection(tmp_path):
    cfg = FuzzTrialConfig(system="dynatune", seed=42, inject="stale_apply")
    scenario = ScenarioGen(GenConfig()).generate(8)
    path = str(tmp_path / "repro.json")
    write_reproducer(path, cfg, scenario, ("boom",), meta={"trial_index": 3})
    loaded_cfg, loaded_scenario, payload = load_reproducer(path)
    assert loaded_cfg.inject is None
    assert loaded_cfg.system == "dynatune" and loaded_cfg.seed == 42
    assert loaded_scenario.to_json() == scenario.to_json()
    assert payload["violations_when_found"] == ["boom"]
    assert payload["meta"]["found_with_injected_bug"] == "stale_apply"
    assert payload["meta"]["trial_index"] == 3


def test_reproducer_dict_is_json_safe():
    cfg = FuzzTrialConfig()
    scenario = ScenarioGen(GenConfig()).generate(4)
    payload = reproducer_dict(cfg, scenario, ("v",))
    blob = json.dumps(payload, sort_keys=True)
    assert json.loads(blob) == payload


def test_load_rejects_a_nan_field(tmp_path):
    # Python's json writes and reads NaN, so a hand-edited or corrupted
    # reproducer can carry one; a NaN step time used to make the replay
    # endless (its end_ms was NaN).
    path = tmp_path / "repro.json"
    write_reproducer(str(path), FuzzTrialConfig(), Scenario("s", [Heal(at_ms=5.0)]), ())
    good = json.loads(path.read_text())
    for section, edit, name in (
        ("scenario", lambda p: p["steps"][0], "at_ms"),
        ("trial", lambda p: p["workload"], "op_timeout_ms"),
    ):
        payload = copy.deepcopy(good)
        edit(payload[section])[name] = math.nan
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=name):
            load_reproducer(str(path))


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "not-a-reproducer"}')
    with pytest.raises(ValueError):
        load_reproducer(str(path))
