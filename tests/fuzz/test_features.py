"""The fuzz feature table: what each bare campaign flag configures."""

import dataclasses

from repro.fuzz import FEATURE_SETS, FuzzTrialConfig, GenConfig, ScenarioGen, run_trial
from repro.fuzz.workload import WorkloadConfig

#: The (generator, trial) pair each bare ``fuzz_campaign`` flag produced
#: when the flags were hand-written — campaign digests depend on every
#: value here.
BARE_FLAG_CONFIGS = {
    "compaction": (
        GenConfig(p_compaction_lag=0.5),
        FuzzTrialConfig(compaction_threshold=40, compaction_margin=8),
    ),
    "membership": (GenConfig(p_membership=0.6), FuzzTrialConfig(membership=True)),
    "serving": (
        GenConfig(),
        FuzzTrialConfig(
            batching=True,
            pipelining=True,
            lease_reads=True,
            workload=WorkloadConfig(read_fastpath=True),
        ),
    ),
    "disk": (GenConfig(p_disk_fault=0.7), FuzzTrialConfig(disk=True)),
    "gray": (
        GenConfig(p_gray=0.6, p_clock_skew=0.6),
        FuzzTrialConfig(
            lease_reads=True,
            workload=WorkloadConfig(
                read_fastpath=True,
                n_clients=4,
                read_only_clients=1,
                max_ops_per_client=120,
            ),
        ),
    ),
}


def test_every_feature_set_configures_what_its_bare_flag_did():
    assert FEATURE_SETS.keys() == BARE_FLAG_CONFIGS.keys()
    for name, feature in FEATURE_SETS.items():
        assert feature.apply(GenConfig(), FuzzTrialConfig()) == BARE_FLAG_CONFIGS[name]
        # The bare flag's value is the table's own.
        strength = feature.default_strength
        assert feature.apply(GenConfig(), FuzzTrialConfig(), strength) == (
            BARE_FLAG_CONFIGS[name]
        )


def test_flag_values_replace_the_tuned_overrides_and_are_validated():
    gen, trial = FEATURE_SETS["gray"].apply(GenConfig(), FuzzTrialConfig(), 0.25)
    assert (gen.p_gray, gen.p_clock_skew) == (0.25, 0.25)
    gen, trial = FEATURE_SETS["compaction"].apply(GenConfig(), FuzzTrialConfig(), 90)
    assert (gen.p_compaction_lag, trial.compaction_threshold) == (0.5, 90)
    assert FEATURE_SETS["compaction"].strength_error(0) is not None
    assert FEATURE_SETS["disk"].strength_error(1.5) is not None
    assert FEATURE_SETS["disk"].strength_error(1.0) is None


def test_membership_change_never_overwrites_a_committed_entry():
    # benchmarks/e2e/README.md finding 9: a leader on the minority side of
    # a partition committed ``add_learner`` on its own ack, one voter's and
    # the learner's; the majority's next leader overwrote index 35.
    seed = 4754968227892355418
    four_keys = dataclasses.replace(FuzzTrialConfig().workload, n_keys=4)
    gen, trial = FEATURE_SETS["membership"].apply(
        GenConfig(), FuzzTrialConfig(seed=seed, workload=four_keys)
    )
    result = run_trial(trial, ScenarioGen(gen).generate(seed))
    assert result.violations == ()
