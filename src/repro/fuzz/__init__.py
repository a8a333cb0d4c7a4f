"""Deterministic scenario fuzzing with a linearizability oracle.

The scenario library covers the failure regimes we *anticipated*; this
package generates the ones we did not.  Its pieces compose into one
machine-checked property per run:

* :mod:`repro.fuzz.generator` — a seeded :class:`ScenarioGen` producing
  random-but-valid :class:`~repro.scenarios.scenario.Scenario` timelines,
  biased toward the conflict windows around election timeouts;
* :mod:`repro.fuzz.history` / :mod:`repro.fuzz.workload` — concurrent
  at-most-once KV clients whose invocations and completions form an
  operation history;
* :mod:`repro.fuzz.linearizability` — a Wing & Gong-style checker that
  decides whether that history is linearizable against the KV spec;
* :mod:`repro.fuzz.oracle` — the checked run every experiment shares
  (cluster + event-hooked :class:`~repro.scenarios.safety.SafetyChecker`
  + recorded workload), and one trial built on it: + scenario +
  linearizability verdict;
* :mod:`repro.fuzz.features` — the ``FEATURE_SETS`` table: per subsystem
  (compaction, membership, serving, disk, gray), the generator/trial
  overrides that put it under the oracle and the counters that prove it;
* :mod:`repro.fuzz.shrinker` — delta debugging from a failing
  ``(config, scenario)`` pair down to a minimal JSON reproducer;
* :mod:`repro.fuzz.bugs` — deterministic safety-bug injectors used to
  prove, in tests and CI, that the oracle and shrinker actually fire.

:mod:`repro.experiments.fuzz_campaign` fans trials across processes with
the same determinism contract as every other experiment: results are
byte-identical for any ``REPRO_JOBS``.
"""

from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.history import KVOp, OpHistory
from repro.fuzz.linearizability import LinearizabilityResult, check_history
from repro.fuzz.oracle import FuzzTrialConfig, TrialResult, run_trial
from repro.fuzz.features import FEATURE_SETS
from repro.fuzz.shrinker import ShrinkResult, shrink

__all__ = [
    "GenConfig",
    "ScenarioGen",
    "KVOp",
    "OpHistory",
    "LinearizabilityResult",
    "check_history",
    "FuzzTrialConfig",
    "TrialResult",
    "FEATURE_SETS",
    "run_trial",
    "ShrinkResult",
    "shrink",
]
