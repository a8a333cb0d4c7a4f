"""Generated trace-kind registry — do not edit by hand.

Regenerate with::

    python -m tools.repolint src/ --write-trace-registry

Every kind emitted anywhere under ``src/`` (plus the justified
``extra_trace_kinds`` from ``tools/repolint/config.py``) is listed here.
``SafetyChecker.install`` validates against this set at runtime so a
typo'd kind fails loudly instead of silently blinding a safety hook;
``tools/repolint`` cross-checks it statically on every run.
"""

from __future__ import annotations

__all__ = ["TRACE_KINDS"]

TRACE_KINDS: frozenset[str] = frozenset(
    (
        "become_leader",
        "bug_ack_before_sync",
        "bug_commit_rewrite",
        "bug_greedy_remove",
        "bug_stale_lease_under_skew",
        "client_abandon",
        "client_giveup",
        "config_append",
        "config_commit",
        "config_rejected",
        "disk_corruption",
        "disk_crash_point",
        "disk_io_error",
        "disk_recover",
        "disk_stall",
        "election_start",
        "election_timeout",
        "fault_crash",
        "fault_leader_pause",
        "fault_pause",
        "fault_recover",
        "leader_observed",
        "lease_fallback",
        "liveness_commit_stall",
        "liveness_election_livelock",
        "liveness_no_leader",
        "log_compact",
        "membership_giveup",
        "node_decommissioned",
        "prevote_start",
        "process_crashed",
        "process_paused",
        "process_recovered",
        "process_resumed",
        "process_stopped",
        "quorum_lost",
        "rt_sample",
        "rt_snapshot",
        "rtt_probe",
        "safety_violation_two_leaders",
        "scenario_step",
        "snapshot_install",
        "snapshot_send",
        "step_down",
        "wal_truncated",
    )
)
