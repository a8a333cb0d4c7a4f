"""Compaction under the full fuzz oracle.

The shrunk kernel of every compaction fuzz find is the same shape: a
follower crashes, the cluster commits enough history that the leader
compacts past the lagger's match index, the follower returns and is
served an InstallSnapshot — and the client-facing history must stay
linearizable across the install while every safety property holds.
``LAGGING_FOLLOWER`` is that minimal timeline, pinned here as a regression
test (with the snapshot install *asserted*, so the test can never
silently degrade into exercising the plain append path).
"""

import dataclasses

from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.oracle import FuzzTrialConfig, run_trial
from repro.fuzz.workload import WorkloadConfig
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Crash, Recover

#: The minimal compaction-pressure timeline (shrunk by hand from the
#: generator's lagging-follower pattern: ddmin cannot drop either step —
#: without the crash there is no lag, without the recover no install).
LAGGING_FOLLOWER = Scenario(
    "compaction-lagging-follower",
    [Crash(at_ms=1_500.0, node="n5"), Recover(at_ms=9_000.0, node="n5")],
    description="follower lags across a compacted prefix, returns via snapshot",
)

#: Busy enough that the history far outgrows the compaction threshold.
PRESSURE_WORKLOAD = WorkloadConfig(
    n_clients=3,
    n_keys=2,
    think_min_ms=10.0,
    think_max_ms=80.0,
    max_ops_per_client=120,
)


def pressure_config(system: str = "raft", **overrides) -> FuzzTrialConfig:
    base = FuzzTrialConfig(
        system=system,
        seed=7,
        compaction_threshold=30,
        compaction_margin=4,
        workload=PRESSURE_WORKLOAD,
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def test_linearizable_across_snapshot_install():
    result = run_trial(pressure_config(), LAGGING_FOLLOWER)
    assert result.violations == ()
    assert not result.lin_undecided
    # The oracle only proves something if the snapshot path actually ran.
    assert result.compactions >= 1
    assert result.snapshots_installed >= 1
    assert result.n_completed > 50


def test_linearizable_across_snapshot_install_dynatune():
    result = run_trial(pressure_config("dynatune"), LAGGING_FOLLOWER)
    assert result.violations == ()
    assert result.snapshots_installed >= 1


def test_same_timeline_without_compaction_stays_on_append_path():
    """Differential control: identical timeline, compaction off — clean
    too, but via full log replay (no snapshot ever moves)."""
    result = run_trial(
        pressure_config(compaction_threshold=0), LAGGING_FOLLOWER
    )
    assert result.violations == ()
    assert result.compactions == 0
    assert result.snapshots_installed == 0


def test_trial_config_compaction_knobs_round_trip():
    cfg = pressure_config()
    assert FuzzTrialConfig.from_dict(cfg.to_dict()) == cfg
    # Old reproducer files (no compaction keys) load with compaction off.
    legacy = {
        k: v
        for k, v in cfg.to_dict().items()
        if k not in ("compaction_threshold", "compaction_margin")
    }
    assert FuzzTrialConfig.from_dict(legacy).compaction_threshold == 0


# --------------------------------------------------------------------- #
# generator pressure pattern
# --------------------------------------------------------------------- #


def test_generator_emits_lagging_follower_pattern():
    gen = ScenarioGen(GenConfig(p_compaction_lag=1.0))
    hit = 0
    for seed in range(40, 60):
        scenario = gen.generate(seed)
        crashes = [s for s in scenario.steps if isinstance(s, Crash)]
        recovers = [s for s in scenario.steps if isinstance(s, Recover)]
        # The forced pattern is the scenario's final two steps.
        tail_crash, tail_recover = scenario.steps[-2], scenario.steps[-1]
        assert isinstance(tail_crash, Crash) and isinstance(tail_recover, Recover)
        assert tail_crash.node == tail_recover.node != "@leader"
        lag = tail_recover.at_ms - tail_crash.at_ms
        assert 6_000.0 <= lag <= 15_000.0
        hit += 1
        assert crashes and recovers
        # Round-trips stay exact with the pattern present.
        assert Scenario.from_dict(scenario.to_dict()).to_dict() == scenario.to_dict()
    assert hit == 20


def test_pressure_knob_off_changes_nothing():
    """p_compaction_lag=0 consumes no draw: the primary steps are the
    byte-identical prefix of the pressure variant's output."""
    off = ScenarioGen(GenConfig())
    on = ScenarioGen(GenConfig(p_compaction_lag=1.0))
    for seed in range(100, 110):
        base = off.generate(seed)
        extended = on.generate(seed)
        assert [s.to_dict() for s in extended.steps[: len(base.steps)]] == [
            s.to_dict() for s in base.steps
        ]
        assert len(extended.steps) == len(base.steps) + 2
