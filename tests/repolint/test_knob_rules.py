"""Rule family 8 (knob liveness): every listed config's fields are set, and
every defaulted parameter of a public callable is passed outside tests."""

import dataclasses

from conftest import REPO_ROOT, lint, rule_hits, write_tree

from tools.repolint import DEFAULT_CONFIG, run_repolint
from tools.repolint.rules.knobs import ConfigKnobLivenessRule, ParamKnobLivenessRule

RULES = [ConfigKnobLivenessRule(DEFAULT_CONFIG)]

TYPES = """\
import dataclasses

@dataclasses.dataclass(frozen=True)
class RaftConfig:
    '''Docstring, not a field.'''

    prevote: bool = True
    lease_reads: bool = False
    dead_knob: int = 7

    def __post_init__(self) -> None:
        pass
"""


def test_field_set_nowhere_is_flagged(tmp_path):
    report = lint(
        tmp_path / "src",
        {
            "repro/raft/types.py": TYPES,
            "repro/experiments/report.py": """\
            from repro.raft.types import RaftConfig
            cfg = RaftConfig(lease_reads=True)
            other = types.RaftConfig(prevote=False)
            """,
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "config-knob-liveness")
    assert hit.symbol == "dead_knob"
    assert hit.path == "repro/raft/types.py"


def test_only_keywords_of_the_config_class_count(tmp_path):
    # A same-named keyword on another call, a default inside the defining
    # module and a bare attribute read do not make a knob live.
    report = lint(
        tmp_path / "src",
        {
            "repro/raft/types.py": TYPES + "DEFAULT = RaftConfig(dead_knob=1)\n",
            "repro/experiments/report.py": """\
            cfg = RaftConfig(prevote=False, lease_reads=True)
            other = SoakConfig(dead_knob=3)
            print(cfg.dead_knob)
            """,
        },
        rules=RULES,
    )
    assert [h.symbol for h in rule_hits(report, "config-knob-liveness")] == [
        "dead_knob"
    ]


def test_tests_and_examples_beside_the_scanned_root_count(tmp_path):
    write_tree(
        tmp_path,
        {"tests/raft/test_x.py": "c = make(RaftConfig(dead_knob=0))\n"},
    )
    report = lint(
        tmp_path / "src",
        {
            "repro/raft/types.py": TYPES,
            "repro/scenarios/library.py": "cfg = RaftConfig(prevote=True, lease_reads=False)\n",
        },
        rules=RULES,
    )
    assert report.findings == []


def test_missing_config_class_is_itself_a_finding(tmp_path):
    report = lint(
        tmp_path / "src",
        {"repro/raft/types.py": "class Role:\n    pass\n"},
        rules=RULES,
    )
    (hit,) = rule_hits(report, "config-knob-liveness")
    assert "cannot verify" in hit.message


SOAK = """\
import dataclasses
from typing import ClassVar

@dataclasses.dataclass(frozen=True)
class SoakConfig:
    n_nodes: ClassVar[int] = 5
    system: str = "raft"
    duration_ms: float = 60_000.0
    churn_down_ms: float = 1_500.0

SMOKE = dataclasses.replace(SoakConfig(), churn_down_ms=500.0)
"""


def test_every_listed_config_is_checked_and_replace_counts_where_named(tmp_path):
    # An experiment config is held to the same rule: a constructor keyword
    # or a replace() keyword counts, the latter only in a file that names
    # the class; ClassVar constants are not fields; the defining module's
    # own replace() does not make a knob live.
    write_tree(
        tmp_path,
        {
            "tests/experiments/test_soak.py": """\
            TINY = SoakConfig(duration_ms=8_000.0)
            other = dataclasses.replace(TINY, system="dynatune")
            """,
            "tests/fuzz/test_oracle.py": "c = dataclasses.replace(q, churn_down_ms=1.0)\n",
        },
    )
    report = lint(
        tmp_path / "src",
        {"repro/raft/types.py": TYPES, "repro/experiments/soak.py": SOAK},
        rules=RULES,
    )
    hits = rule_hits(report, "config-knob-liveness")
    assert [(h.path, h.symbol) for h in hits if "soak" in h.path] == [
        ("repro/experiments/soak.py", "churn_down_ms")
    ]


def test_real_tree_knobs_are_all_live_only_thanks_to_their_users():
    # Clean as shipped; blind the rule to tests/benchmarks/examples and a
    # knob of every experiment config surfaces — only tests and benchmarks
    # set those — i.e. the user roots are really being read.  The two
    # protocol configs must stay clean even blind: every RaftConfig and
    # DynatuneConfig option, and every ClusterConfig field, has a caller
    # under src/.
    assert run_repolint(REPO_ROOT / "src", rules=RULES).findings == []
    blind = dataclasses.replace(DEFAULT_CONFIG, knob_user_roots=())
    report = run_repolint(
        REPO_ROOT / "src", rules=[ConfigKnobLivenessRule(blind)]
    )
    protocol = {
        "repro/raft/types.py",
        "repro/dynatune/config.py",
        "repro/cluster/builder.py",
    }
    assert [h for h in report.findings if h.path in protocol] == []
    # fig8_geo's two configs pass every Fig4Config field but ``system``, the
    # cell coordinate that only fig4_election's own ``cells`` fills.
    assert {
        h.symbol for h in report.findings if h.path == "repro/experiments/fig4_election.py"
    } == {"system"}
    assert {h.path for h in report.findings} == {
        modpath for modpath, _ in DEFAULT_CONFIG.knob_configs
    } - protocol


FUZZ_CONFIGS = {
    "repro/cluster/builder.py": "ClusterConfig",
    "repro/fuzz/generator.py": "GenConfig",
    "repro/fuzz/oracle.py": "FuzzTrialConfig",
    "repro/fuzz/workload.py": "WorkloadConfig",
}


def test_fuzz_configs_have_callers_beyond_the_tests():
    # With tests and examples hidden, what src/ and benchmarks/ set is all
    # that counts.  The feature sets set their keys through dicts the rule
    # cannot see (``dataclasses.replace(gen, **overrides)``), and
    # ``inject_at_ms`` is recorded by a committed reproducer; any other
    # finding is a knob only tests turn.
    from repro.fuzz.features import FEATURE_SETS

    assert set(FUZZ_CONFIGS.items()) <= set(DEFAULT_CONFIG.knob_configs)
    blind = dataclasses.replace(DEFAULT_CONFIG, knob_user_roots=("../benchmarks",))
    report = run_repolint(REPO_ROOT / "src", rules=[ConfigKnobLivenessRule(blind)])
    fed = {
        key
        for feature in FEATURE_SETS.values()
        for overrides in (feature.gen, feature.trial, feature.workload)
        for key in overrides
    }
    found = {(h.path, h.symbol) for h in report.findings if h.path in FUZZ_CONFIGS}
    assert found, "the feature-set keys should surface: is the rule blind?"
    assert {
        (path, symbol)
        for path, symbol in found
        if symbol not in fed and (path, symbol) != ("repro/fuzz/oracle.py", "inject_at_ms")
    } == set()


# -- param-knob-liveness: defaulted parameters of public callables ---------- #

PARAM_RULES = [ParamKnobLivenessRule(DEFAULT_CONFIG)]

POLICY = """\
class StaticPolicy:
    def __init__(self, election_timeout_ms=1000.0, heartbeat_interval_ms=100.0, jitter_ms=0.0):
        self.et = election_timeout_ms

    @classmethod
    def raft_low(cls):
        return cls(500.0, heartbeat_interval_ms=50.0)
"""

TOPOLOGY = """\
def geo(network, names, *, loss=0.0, regions=None, jitter=0.02):
    pass

def _private(x=1):
    pass
"""


def param_hits(report):
    return {h.symbol for h in rule_hits(report, "param-knob-liveness")}


def test_param_passed_by_keyword_position_or_cls_is_live(tmp_path):
    # ``cls(500.0, ...)`` passes the first parameter by position and the
    # second by keyword; ``topology.geo`` resolves through the module
    # import; a private function is not an option.
    report = lint(
        tmp_path / "src",
        {
            "repro/dynatune/policy.py": POLICY,
            "repro/net/topology.py": TOPOLOGY,
            "repro/cluster/builder.py": """\
            from repro.net import topology
            topology.geo(net, names, loss=0.1)
            """,
        },
        rules=PARAM_RULES,
    )
    assert param_hits(report) == {
        "StaticPolicy.jitter_ms",
        "geo.regions",
        "geo.jitter",
    }


def test_only_callers_outside_tests_count_and_names_resolve_by_module(tmp_path):
    # A test (or example) setting a parameter does not make it live, and
    # neither does a same-named function of another module.
    write_tree(
        tmp_path,
        {
            "tests/net/test_topology.py": (
                "from repro.net.topology import geo\n"
                "geo(net, names, regions=('a',), jitter=0.0)\n"
            ),
            "benchmarks/e2e/workloads.py": (
                "from repro.net.topology import geo\ngeo(net, names, jitter=0.1)\n"
            ),
        },
    )
    report = lint(
        tmp_path / "src",
        {
            "repro/net/topology.py": TOPOLOGY,
            "repro/experiments/other.py": """\
            def geo(loss=None, regions=None):
                pass

            geo(loss=1, regions=2)
            """,
        },
        rules=PARAM_RULES,
    )
    assert param_hits(report) == {"geo.loss", "geo.regions"}
    assert {h.path for h in rule_hits(report, "param-knob-liveness")} == {
        "repro/net/topology.py"
    }


def test_build_scenario_overrides_reach_only_the_builders_a_caller_names(tmp_path):
    # Keywords passed through the configured forwarder count for the
    # builder its literal first argument selects, or else for each one
    # whose key the calling file names; ``functools.partial`` is a call.
    report = lint(
        tmp_path / "src",
        {
            "repro/scenarios/library.py": """\
            def split(names, *, start_ms=1.0, hold_ms=2.0):
                pass

            def gray(names, *, start_ms=1.0, hold_ms=2.0):
                pass

            SCENARIO_BUILDERS = {"split": split, "gray_egress": gray}

            def build_scenario(name, names, **overrides):
                return SCENARIO_BUILDERS[name](names, **overrides)
            """,
            "repro/experiments/grayfail.py": """\
            from repro.scenarios.library import build_scenario

            ARMS = {"g": "gray_egress"}
            build_scenario(ARMS[arm], names, start_ms=5.0)
            """,
            "repro/experiments/matrix.py": """\
            import functools
            from repro.scenarios import library

            held = functools.partial(library.build_scenario, "split", hold_ms=3.0)
            """,
        },
        rules=PARAM_RULES,
    )
    assert param_hits(report) == {"split.start_ms", "gray.hold_ms"}


#: Defaulted parameters kept as test seams, each behind a suppression
#: that says why (see the comment above each in ``src/``).
SEAMS = {
    "shrink.oracle",
    "check_history.budget",
    "run.jobs",
    "main.argv",
    "CostModel.costs_ms",
    "GilbertElliottLoss.loss_good",
    "GilbertElliottLoss.loss_bad",
}


def test_real_tree_params_have_callers_beyond_tests_and_examples():
    # The rule reads no tests or examples: every defaulted parameter of a
    # public callable under src/ is passed by src/ or benchmarks/, or is
    # one of the suppressed seams.  The seams surfacing as suppressed
    # findings shows the rule is not blind.
    assert DEFAULT_CONFIG.knob_param_user_roots == ("../benchmarks",)
    report = run_repolint(REPO_ROOT / "src", rules=PARAM_RULES)
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert {f.symbol for f in report.suppressed} == SEAMS
