"""Runtime trace-kind registry guard.

``tools/repolint`` cross-checks trace kinds statically; these tests pin
the runtime half of the contract: a typo'd kind handed to a safety hook
fails loudly instead of silently blinding the consumer.
"""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.experiments.common import make_policy_factory
from repro.scenarios import safety as safety_mod
from repro.scenarios.safety import HOOK_KINDS, SafetyChecker
from repro.sim.trace_kinds import TRACE_KINDS


def test_registry_covers_all_hook_kinds():
    # Same invariant repolint checks statically; pinned at runtime too so
    # an edit that skips the linter still cannot ship a blind hook.
    assert HOOK_KINDS <= TRACE_KINDS


def test_registry_contains_core_measurement_kinds():
    assert {
        "become_leader",
        "election_timeout",
        "fault_leader_pause",
        "fault_pause",
    } <= TRACE_KINDS


def test_hook_kinds_cover_role_and_fault_records():
    # The checker relies on these exact kinds existing in HOOK_KINDS;
    # losing one silently shrinks event-hook coverage.
    assert {
        "become_leader",
        "step_down",
        "election_timeout",
        "process_paused",
        "process_crashed",
    } <= HOOK_KINDS


def test_safety_checker_install_rejects_typod_hook_kind(monkeypatch):
    cluster = build_cluster(
        ClusterConfig(n_nodes=3, seed=7, rtt_ms=50.0),
        make_policy_factory("raft"),
    )
    checker = SafetyChecker(cluster)
    monkeypatch.setattr(
        safety_mod, "HOOK_KINDS", HOOK_KINDS | {"proces_paused"}
    )
    with pytest.raises(ValueError, match="proces_paused"):
        checker.install(event_hooks=True)
    # The aborted install must not have left a half-armed checker.
    assert not checker._installed and not checker._hooked
