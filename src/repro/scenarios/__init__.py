"""Declarative fault/network scenario engine.

One :class:`~repro.scenarios.scenario.Scenario` unifies the three
impairment layers — network weather (:class:`SetRtt`/:class:`SetLoss`),
connectivity (:class:`Partition`/:class:`Heal`/:class:`Flap`) and node
faults (:class:`Pause`/:class:`Crash`/:class:`Recover`/:class:`Churn`) —
into a single replayable timeline that installs onto a cluster as
control-priority events, emits a trace record per applied step, and
round-trips through plain dicts/JSON.  It is the one timeline engine:
the paper's §IV-C ``tc`` scripts are scenarios too
(:mod:`repro.scenarios.profiles`).

See :mod:`repro.scenarios.library` for the canonical scenario set and
:mod:`repro.scenarios.safety` for the partition safety checker.
"""

from repro.scenarios.library import (
    SCENARIO_BUILDERS,
    build_scenario,
    scenario_names,
)
from repro.scenarios.liveness import LivenessChecker, LivenessViolation
from repro.scenarios.safety import SafetyChecker
from repro.scenarios.scenario import Scenario, ScenarioRuntime
from repro.scenarios.steps import (
    LEADER_SELECTOR,
    STEP_TYPES,
    BlockLink,
    Churn,
    Crash,
    Flap,
    GrayLink,
    Heal,
    Partition,
    Pause,
    Recover,
    Repeat,
    SetClock,
    SetDuplicate,
    SetLoss,
    SetRtt,
    Step,
    step_from_dict,
)

__all__ = [
    "Scenario",
    "ScenarioRuntime",
    "SafetyChecker",
    "LivenessChecker",
    "LivenessViolation",
    "Step",
    "Repeat",
    "SetRtt",
    "SetLoss",
    "SetDuplicate",
    "Partition",
    "Heal",
    "Pause",
    "Crash",
    "Recover",
    "Flap",
    "BlockLink",
    "GrayLink",
    "SetClock",
    "Churn",
    "LEADER_SELECTOR",
    "STEP_TYPES",
    "step_from_dict",
    "SCENARIO_BUILDERS",
    "scenario_names",
    "build_scenario",
]
