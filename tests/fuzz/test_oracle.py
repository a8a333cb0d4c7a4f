"""The fuzz trial oracle: clean runs stay clean, injected bugs get caught."""

import dataclasses
import json
import math
import pathlib

import pytest

from repro.fuzz.bugs import BUG_KINDS, install_bug
from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.oracle import RETIRED_KEYS, FuzzTrialConfig, run_trial
from repro.scenarios.scenario import Scenario

#: A fast trial shape shared by the tests here.
QUICK = FuzzTrialConfig(min_run_ms=9_000.0, settle_ms=4_000.0)


def test_empty_scenario_trial_is_clean_and_busy():
    result = run_trial(QUICK, Scenario("noop", []))
    assert result.violations == ()
    assert not result.lin_undecided
    assert result.n_completed > 20
    assert result.first_leader_ms is not None
    assert result.duration_ms == QUICK.min_run_ms


def test_generated_scenario_trial_is_clean():
    scenario = ScenarioGen(GenConfig()).generate(5)
    result = run_trial(dataclasses.replace(QUICK, seed=123), scenario)
    assert result.violations == ()
    assert result.steps_applied >= 1


def test_trial_is_deterministic():
    scenario = ScenarioGen(GenConfig()).generate(7)
    cfg = dataclasses.replace(QUICK, seed=99, system="dynatune")
    assert run_trial(cfg, scenario) == run_trial(cfg, scenario)


def test_commit_rewrite_bug_is_caught():
    cfg = dataclasses.replace(QUICK, inject="commit_rewrite", inject_at_ms=6_000.0)
    result = run_trial(cfg, Scenario("noop", []))
    assert result.violations
    assert any("committed" in v for v in result.violations)


def test_stale_apply_bug_is_caught_by_linearizability():
    # Seed chosen so the dropped put's key is read again afterwards.
    cfg = dataclasses.replace(QUICK, inject="stale_apply", seed=3)
    result = run_trial(cfg, Scenario("noop", []))
    assert any(v.startswith("linearizability:") for v in result.violations)


def test_bug_free_inject_field_roundtrips():
    cfg = dataclasses.replace(QUICK, inject="stale_apply", seed=1)
    back = FuzzTrialConfig.from_dict(cfg.to_dict())
    assert back == cfg


#: A committed v1 reproducer's trial config, written when the retired
#: keys were still fields.
V1_TRIAL = json.loads(
    (pathlib.Path(__file__).parent / "regressions" / "raft_trial0_82ac0897.json").read_text()
)["trial"]


@pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
def test_v1_retired_key_loads_only_at_its_constant(key):
    kept = RETIRED_KEYS[key]
    assert V1_TRIAL[key] == kept
    assert key not in FuzzTrialConfig.from_dict(V1_TRIAL).to_dict()
    cfg = dataclasses.replace(QUICK, inject="stale_apply", seed=1)
    assert FuzzTrialConfig.from_dict({**cfg.to_dict(), key: kept}) == cfg
    for payload in (V1_TRIAL, cfg.to_dict()):
        for other in (kept + 1, math.nan):
            with pytest.raises(ValueError, match=repr(key)):
                FuzzTrialConfig.from_dict({**payload, key: other})


def test_trial_config_rejects_negative_and_non_finite_windows():
    # A NaN or infinite window never ends the run.
    for name in ("settle_ms", "min_run_ms", "inject_at_ms"):
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                FuzzTrialConfig(**{name: value})
    # The same holds for a reproducer: Python's json reads NaN.
    with pytest.raises(ValueError, match="settle_ms"):
        FuzzTrialConfig.from_dict(json.loads('{"settle_ms": NaN}'))


def test_unknown_bug_kind_rejected():
    from tests.conftest import make_raft_cluster

    cluster = make_raft_cluster(3)
    with pytest.raises(ValueError):
        install_bug(cluster, "segfault", 1_000.0)
    assert "segfault" not in BUG_KINDS
