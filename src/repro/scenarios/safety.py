"""Raft safety monitoring across split/heal cycles.

The partition scenarios exercise exactly the histories where naive tuning
breaks Raft in the wild: leadership contested across a split, commit
pipelines cut mid-replication, nodes rejoining with stale state.
:class:`SafetyChecker` samples the live cluster on a fixed cadence and
checks, over the whole run:

* **election safety** — at most one ``become_leader`` per term, and no
  ``safety_violation_two_leaders`` trace record;
* **monotone commit** — a node's commit index never moves backwards
  within one incarnation (a crash legitimately resets the volatile commit
  index, so monotonicity restarts after each ``process_crashed``);
* **no committed-entry loss** — every ``(index, term)`` pair ever
  observed at or below a commit index stays in every node's log at that
  index for the rest of the run (committed entries are never overwritten).
  With log compaction enabled, a pair at or below a node's snapshot
  frontier counts as *retained via snapshot*: the entry's bytes are gone
  but its effect is inside the state-machine image, which is exactly what
  §7 of the Raft paper promises.  The frontier itself still carries a
  term, so a frontier whose term contradicts the committed pair at that
  index is a violation — a snapshot must never launder an overwrite.

Commit indices are sound under-approximations of "truly committed" even
on a deposed leader (it cannot advance commit without a majority), so the
sampled pairs are all genuinely committed entries — the check has no
false positives by construction.

Sampling alone has a blind spot: a violation whose entire window fits
*between* two samples — e.g. a node that silently flips into the leader
role of the current term for 100 ms — leaves no evidence at either
endpoint.  ``install(event_hooks=True)`` closes it by subscribing to the
cluster trace and re-checking the instantaneous "at most one live leader
per term" invariant (plus taking a full sample) at every term/role/fault
transition, so any double-leader window that coincides with *any* traced
cluster event is caught at the instant it exists.

With fallible storage the hooks additionally enforce **crash-recovery
durability** (the other half of §5.2's ack-after-sync contract): at every
``process_crashed`` the checker captures the node's *synced* durable view,
and at the matching ``disk_recover`` verifies the recovered node against
it — term and (same-term) vote never regress below their synced values, a
synced entry observed committed survives in the recovered log or under
its snapshot frontier, and a compacted log never recovers without a
covering snapshot image.
"""

from __future__ import annotations

from repro.cluster.builder import Cluster
from repro.raft.membership import quorums_overlap
from repro.storage.base import DurableView
from repro.raft.types import Role
from repro.sim.process import ProcessState
from repro.sim.trace_kinds import TRACE_KINDS
from repro.sim.tracing import TraceRecord

__all__ = ["SafetyChecker", "HOOK_KINDS"]

#: Trace kinds that mark a term/role/liveness transition somewhere in the
#: cluster — the moments the event-driven checker re-examines live state.
#: ``process_recovered`` is deliberately absent: the record is emitted
#: after the process is marked RUNNING but *before* ``on_recover`` resets
#: volatile state, so sampling there would pin the dead incarnation's
#: commit index onto the new one (a guaranteed false positive).
HOOK_KINDS: frozenset[str] = frozenset(
    {
        "become_leader",
        "step_down",
        "leader_observed",
        "election_start",
        "election_timeout",
        "quorum_lost",
        "process_paused",
        "process_resumed",
        "process_crashed",
        # Quorum arithmetic changes the instant a config entry commits or a
        # removed node is decommissioned — worth a full sample each.
        "config_commit",
        "process_stopped",
        # Emitted at the *end* of a fallible-storage recovery (volatile
        # state already reset — unlike process_recovered, see above), so a
        # full sample here is sound and the durability check runs on it.
        "disk_recover",
    }
)


class SafetyChecker:
    """Periodic safety sampler + end-of-run verifier for one cluster."""

    def __init__(self, cluster: Cluster, *, interval_ms: float = 250.0) -> None:
        if interval_ms <= 0.0:
            raise ValueError(f"interval_ms must be > 0, got {interval_ms!r}")
        self.cluster = cluster
        self.interval_ms = interval_ms
        #: Violations detected during sampling (monotonicity breaks).
        self.violations: list[str] = []
        #: index → term of a committed entry observed there.
        self._committed: dict[int, int] = {}
        #: node → (commit index, crash count) at the previous sample.
        self._last: dict[str, tuple[int, int]] = {}
        #: (term, frozenset of leaders) overlaps already reported.
        self._overlaps_seen: set[tuple[int, frozenset[str]]] = set()
        #: node → synced durable view captured at its latest crash.
        self._durable_at_crash: dict[str, DurableView] = {}
        self._installed = False
        self._hooked = False

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def install(self, *, event_hooks: bool = False) -> None:
        """Arm the periodic sampler (idempotent).

        Args:
            event_hooks: additionally subscribe to the cluster trace and
                run :meth:`check_now` on every term/role/fault transition
                (see :data:`HOOK_KINDS`) — catches violation windows
                shorter than ``interval_ms``.

        Raises:
            ValueError: if any hook kind is absent from the generated
                :data:`repro.sim.trace_kinds.TRACE_KINDS` registry — a
                typo'd hook kind would never match a record, silently
                shrinking event-hook coverage.
        """
        unknown = HOOK_KINDS - TRACE_KINDS
        if unknown:
            raise ValueError(
                f"SafetyChecker hook kind(s) {sorted(unknown)} are not in "
                "repro.sim.trace_kinds.TRACE_KINDS; a typo here silently "
                "disables the event-driven safety hooks (regenerate with: "
                "python -m tools.repolint src/ --write-trace-registry)"
            )
        if event_hooks and not self._hooked:
            self._hooked = True
            self.cluster.trace.subscribe(self._on_trace_record)
        if self._installed:
            return
        self._installed = True
        self.cluster.loop.every(self.interval_ms, self.sample)

    def _on_trace_record(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "process_crashed":
            # The record is emitted before storage.on_crash() runs, so the
            # captured view is exactly the synced region — the pending tail
            # (legitimately lost) was never part of it.
            node = self.cluster.nodes.get(rec.node)
            if node is not None:
                self._durable_at_crash[rec.node] = node.storage.durable_view()
        elif kind == "disk_recover":
            self._check_durability(rec.node)
        if kind in HOOK_KINDS:
            self.check_now()

    def _check_durability(self, name: str) -> None:
        """Crash-recovery durability: what storage had synced when the node
        crashed must be reproduced by the recovery that follows —
        ack-after-sync is only sound if synced state is actually stable
        across the crash."""
        view = self._durable_at_crash.get(name)
        node = self.cluster.nodes.get(name)
        if view is None or node is None:
            return
        now = self.cluster.loop.now
        if node.current_term < view.term:
            self.violations.append(
                f"t={now:g}: {name} recovered into term {node.current_term} "
                f"below its synced term {view.term}"
            )
        elif (
            node.current_term == view.term
            and view.voted_for is not None
            and node.voted_for != view.voted_for
        ):
            self.violations.append(
                f"t={now:g}: {name} recovered with vote {node.voted_for!r} in "
                f"term {view.term} but had synced a vote for {view.voted_for!r}"
            )
        log = node.log
        snap_index = (
            node.snapshot.last_included_index if node.snapshot is not None else 0
        )
        if log.last_included_index > 0 and snap_index < log.last_included_index:
            self.violations.append(
                f"t={now:g}: {name} recovered a compacted log (frontier "
                f"{log.last_included_index}) without a covering snapshot "
                f"(snapshot index {snap_index})"
            )
        for index in sorted(view.entry_terms):
            term = view.entry_terms[index]
            if self._committed.get(index) != term:
                continue  # never observed committed: losing it is legal
            if index <= log.last_included_index:
                continue  # retained via snapshot frontier
            if index <= log.last_index and log.term_at(index) == term:
                continue
            self.violations.append(
                f"t={now:g}: {name} lost synced committed entry "
                f"(index {index}, term {term}) across recovery"
            )

    def check_now(self) -> None:
        """Event-driven check: instantaneous leader overlap + a full sample."""
        now = self.cluster.loop.now
        by_term: dict[int, list[str]] = {}
        for node in self.cluster.nodes.values():
            if node.state is ProcessState.RUNNING and node.role is Role.LEADER:
                by_term.setdefault(node.current_term, []).append(node.name)
        for term, names in by_term.items():
            if len(names) > 1:
                key = (term, frozenset(names))
                if key not in self._overlaps_seen:
                    self._overlaps_seen.add(key)
                    self.violations.append(
                        f"t={now:g}: {len(names)} live leaders in term {term} "
                        f"({sorted(names)})"
                    )
        self.sample()

    def _crash_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.cluster.trace.of_kind("process_crashed"):
            counts[rec.node] = counts.get(rec.node, 0) + 1
        return counts

    def sample(self) -> None:
        """Record one safety observation (also callable directly by tests)."""
        crashes = self._crash_counts()
        now = self.cluster.loop.now
        for name, node in self.cluster.nodes.items():
            if node.state is ProcessState.CRASHED:
                # A crashed node's volatile state is limbo: commit_index
                # still shows the pre-crash value and only resets at
                # recovery, so sampling it would pin a stale high-water
                # mark onto the post-recovery incarnation.
                continue
            commit = node.commit_index
            incarnation = crashes.get(name, 0)
            prev = self._last.get(name)
            if prev is not None:
                prev_commit, prev_incarnation = prev
                if incarnation == prev_incarnation and commit < prev_commit:
                    self.violations.append(
                        f"t={now:g}: commit index of {name} moved backwards "
                        f"({prev_commit} -> {commit}) without a crash"
                    )
            # Record every index the commit advanced over since the last
            # sample (not just the endpoint): an entry committed and then
            # lost *between* samples must still be caught.  After a crash
            # the commit restarts at 0 (or the snapshot index) and the
            # prefix is re-recorded — harmless, and re-checking it against
            # earlier terms is free extra coverage.
            start = prev[0] if prev is not None and prev[1] == incarnation else 0
            self._last[name] = (commit, incarnation)
            log = node.log
            frontier = log.last_included_index
            lo = min(start, commit)
            if frontier > 0:
                # Entries below the frontier are retained via snapshot and
                # have no individually readable term; the frontier entry
                # itself still does, so per-index recording starts there.
                # (The frontier term is cross-checked against the committed
                # map below via the same term_at read.)
                lo = max(lo, frontier - 1)
            for index in range(lo + 1, commit + 1):
                term = log.term_at(index)
                seen = self._committed.get(index)
                if seen is None:
                    self._committed[index] = term
                elif seen != term:
                    self.violations.append(
                        f"t={now:g}: index {index} committed with term {term} "
                        f"on {name} but term {seen} was committed there earlier"
                    )

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #

    def verify(self) -> list[str]:
        """All violations over the run (empty list = every property held)."""
        self.sample()  # capture the final state too
        problems = list(self.violations)

        by_term: dict[int, set[str]] = {}
        for rec in self.cluster.trace.of_kind("become_leader"):
            by_term.setdefault(rec.get("term"), set()).add(rec.node)
        for term, nodes in sorted(by_term.items()):
            if len(nodes) > 1:
                problems.append(
                    f"election safety: term {term} elected {sorted(nodes)}"
                )
        for rec in self.cluster.trace.of_kind("safety_violation_two_leaders"):
            problems.append(
                f"t={rec.time:g}: two leaders observed in term {rec.get('term')} "
                f"({rec.node} vs {rec.get('other')})"
            )

        for name, node in self.cluster.nodes.items():
            log = node.log
            frontier = log.last_included_index
            for index, term in self._committed.items():
                if index > node.commit_index:
                    continue
                if index < frontier:
                    # Retained via snapshot: the frontier covers it, and a
                    # frontier is only ever taken over applied (committed)
                    # state, so the pair is preserved by construction.
                    continue
                held = log.term_at(index)
                if held != term:
                    what = (
                        "snapshot frontier contradicts committed entry"
                        if index == frontier
                        else "committed entry lost"
                    )
                    problems.append(
                        f"{what}: {name} holds term {held} at index {index}, "
                        f"but term {term} was committed there"
                    )

        problems.extend(self._verify_membership())
        return problems

    def _verify_membership(self) -> list[str]:
        """Reconfiguration invariants, checked from ``config_commit`` records.

        * **config agreement** — every node that commits the config entry
          at an index reports the same resulting voter set;
        * **one-at-a-time** — adjacent configurations differ by at most one
          voter (the structural precondition of the single-change protocol);
        * **quorum overlap** — any majority of the old voters intersects
          any majority of the new (what actually transfers safety across
          the change);
        * **no orphaned committed entry** — every entry ever observed
          committed is still held (in log or via snapshot) by a majority of
          the *final* committed configuration's voters, i.e. removing the
          replicas that acked it never stranded it on departed nodes.
        """
        problems: list[str] = []
        by_index: dict[int, TraceRecord] = {}
        for rec in self.cluster.trace.of_kind("config_commit"):
            index = rec.get("index")
            first = by_index.get(index)
            if first is None:
                by_index[index] = rec
            elif sorted(first.get("voters")) != sorted(rec.get("voters")) or sorted(
                first.get("learners")
            ) != sorted(rec.get("learners")):
                problems.append(
                    f"config divergence at index {index}: {first.node} committed "
                    f"{sorted(first.get('voters'))} but {rec.node} committed "
                    f"{sorted(rec.get('voters'))}"
                )
        if not by_index:
            return problems

        for index in sorted(by_index):
            rec = by_index[index]
            old = set(rec.get("prev_voters") or ())
            new = set(rec.get("voters") or ())
            if len(old ^ new) > 1:
                problems.append(
                    f"config change at index {index} moved more than one voter: "
                    f"{sorted(old)} -> {sorted(new)}"
                )
            if not quorums_overlap(old, new):
                problems.append(
                    f"config change at index {index} breaks quorum overlap: "
                    f"{sorted(old)} -> {sorted(new)}"
                )

        final = by_index[max(by_index)]
        final_voters = [
            v for v in final.get("voters", ()) if v in self.cluster.nodes
        ]
        if not final_voters:
            return problems
        quorum = len(final_voters) // 2 + 1
        for index, term in sorted(self._committed.items()):
            holders = 0
            for name in final_voters:
                log = self.cluster.nodes[name].log
                if index <= log.last_included_index:
                    holders += 1  # retained via snapshot
                elif index <= log.last_index and log.term_at(index) == term:
                    holders += 1
            if holders < quorum:
                problems.append(
                    f"orphaned committed entry: index {index} (term {term}) held "
                    f"by {holders}/{len(final_voters)} final voters "
                    f"(quorum {quorum}) — stranded on removed nodes"
                )
        return problems

    def assert_safe(self) -> None:
        """Raise ``AssertionError`` listing every violated property."""
        problems = self.verify()
        assert not problems, "safety violations:\n  " + "\n  ".join(problems)
