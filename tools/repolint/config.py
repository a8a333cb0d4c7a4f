"""Repo-specific configuration for the repolint rule families.

Everything path-like is a **modpath**: the file's path relative to the
scanned root, in posix form.  Scanning ``src/`` therefore yields modpaths
such as ``repro/raft/node.py`` — the same shape fixture trees use in
``tests/repolint/``, so one config drives both the real tree and the
fixture corpora.
"""

from __future__ import annotations

import dataclasses

__all__ = ["RepolintConfig", "DEFAULT_CONFIG"]


@dataclasses.dataclass(frozen=True)
class RepolintConfig:
    """Knobs consumed by the rule families (see ``tools/repolint/rules``)."""

    # -- determinism (rule family 1) ----------------------------------- #
    #: Modpath prefixes where wall clocks, stdlib ``random``, ``os.urandom``
    #: and unseeded ``default_rng()`` are forbidden and where unordered
    #: iteration feeding scheduling/tracing/sends is flagged.
    determinism_scopes: tuple[str, ...] = (
        "repro/sim/",
        "repro/raft/",
        "repro/net/",
        "repro/dynatune/",
        "repro/scenarios/",
        "repro/fuzz/",
    )
    #: Callable attribute names that schedule events, emit trace records or
    #: send messages — the sinks whose invocation order must not depend on
    #: set/dict iteration order.
    order_sensitive_sinks: frozenset[str] = frozenset(
        {
            "send",
            "transmit",
            "broadcast",
            "schedule",
            "schedule_at",
            "_push_event",
            "record",
            "_rpc",
            "_reply",
            "_replicate_to_all",
            "_send_append",
            "_send_heartbeat_to",
            "_send_snapshot",
            "reset",  # Timer.reset arms an event
        }
    )

    #: The slots holding a link's raw generator and its pre-drawn jitter
    #: block, the one module that owns them and the one ``(modpath,
    #: function)`` besides that may touch them — everything else goes
    #: through ``Link.rng``, which rewinds the stream first.
    link_stream_slots: frozenset[str] = frozenset(
        {"_rng", "_block", "_pos", "_block_state"}
    )
    link_stream_owner: str = "repro/net/link.py"
    link_stream_user: tuple[str, str] = (
        "repro/net/network.py",
        "Network.transmit",
    )

    # -- hot-path discipline (rule family 2) --------------------------- #
    #: Modules whose every class must declare ``__slots__`` (directly or
    #: via ``@dataclass(slots=True)``).
    slots_modules: tuple[str, ...] = (
        "repro/raft/messages.py",
        "repro/dynatune/metadata.py",
    )
    #: Envelope-style and per-op payload class names that must be slotted
    #: wherever they live.
    slots_class_names: frozenset[str] = frozenset(
        {"_Delivery", "Message", "TraceRecord", "KVCommand"}
    )
    #: modpath -> qualified function names that must stay free of
    #: comprehension/lambda/f-string allocations (error paths inside
    #: ``raise`` statements are exempt).
    hot_functions: dict[str, frozenset[str]] = dataclasses.field(
        default_factory=lambda: {
            "repro/raft/node.py": frozenset(
                {
                    "RaftNode.deliver",
                    "RaftNode._on_heartbeat",
                    "RaftNode._on_heartbeat_response",
                    "RaftNode._send_heartbeat_to",
                    "RaftNode._heartbeat_tick",
                    "RaftNode._schedule_heartbeat",
                    "RaftNode._apply_committed",
                }
            ),
            "repro/raft/client.py": frozenset(
                {
                    "RaftClient.deliver",
                    "RaftClient.submit",
                    "RaftClient._transmit",
                    "RaftClient._on_response",
                }
            ),
            "repro/fuzz/history.py": frozenset(
                {"OpHistory.invoke", "OpHistory.complete"}
            ),
            "repro/sim/timers.py": frozenset(
                {"DeadlineQueue.add", "DeadlineQueue._fire"}
            ),
            "repro/storage/simdisk.py": frozenset(
                {"SimDiskStorage.wal_append", "SimDiskStorage.sync"}
            ),
            "repro/fuzz/workload.py": frozenset(
                {
                    "_ClientLoop.issue",
                    "_ClientLoop.settle",
                    "_ClientLoop._expire",
                    "_BlockDraws.random",
                    "_BlockDraws._next32",
                    "_BlockDraws.integers",
                }
            ),
            "repro/net/network.py": frozenset({"Network.transmit"}),
            "repro/net/link.py": frozenset({"Link._refill", "Link._sync"}),
            "repro/dynatune/measurement.py": frozenset(
                {"PathMeasurement.record", "PathMeasurement.estimate"}
            ),
            "repro/dynatune/policy.py": frozenset(
                {"DynatunePolicy.on_heartbeat", "DynatunePolicy._retune"}
            ),
            "repro/sim/tracing.py": frozenset({"TraceLog.record"}),
        }
    )

    # -- trace-kind registry (rule family 3) --------------------------- #
    #: Modpath of the generated registry module.
    trace_registry_modpath: str = "repro/sim/trace_kinds.py"
    #: Kinds merged into the registry that static extraction cannot see.
    #: They reach ``TraceLog.record`` through dynamic ``kind`` parameters
    #: (the suppressed ``trace-dynamic-kind`` sites):
    #: * ``fault_leader_pause`` — a pause that *is* a leader failure;
    #:   consumed by the measurement layer as ``LEADER_FAILURE_KIND``;
    #: * ``fault_pause`` — ``pause_for``'s default / plain container sleep;
    #: * ``liveness_*`` — the :class:`~repro.scenarios.liveness.
    #:   LivenessChecker`'s three detectors, emitted via its ``_flag``
    #:   helper.
    extra_trace_kinds: tuple[str, ...] = (
        "fault_leader_pause",
        "fault_pause",
        "liveness_no_leader",
        "liveness_election_livelock",
        "liveness_commit_stall",
    )

    #: Module/class constants whose string elements are consumed trace
    #: kinds (membership-dispatch sets like ``SafetyChecker.HOOK_KINDS``)
    #: — checked against the registry like any ``of_kind`` argument.
    trace_kind_constant_names: frozenset[str] = frozenset({"HOOK_KINDS"})

    # -- dispatch completeness (rule family 4) ------------------------- #
    #: Module defining the RPC payload classes.
    messages_modpath: str = "repro/raft/messages.py"
    #: Module holding the type-indexed dispatch table assignment.
    dispatch_modpath: str = "repro/raft/node.py"
    #: Name the dispatch dict is assigned to (``X._DISPATCH = {...}``).
    dispatch_attr: str = "_DISPATCH"
    #: Message classes nodes legitimately never receive (client-bound).
    dispatch_exempt: frozenset[str] = frozenset({"ClientResponse"})
    #: Module defining the scenario Step subclasses.
    steps_modpath: str = "repro/scenarios/steps.py"
    #: Name of the kind-tag -> class registry dict in that module.
    step_registry_name: str = "STEP_TYPES"
    #: Step base/abstract classes exempt from registration (private
    #: ``_Foo`` helpers are exempt automatically).
    step_abstract_names: frozenset[str] = frozenset({"Step"})

    # -- protocol-state hygiene (rule family 5) ------------------------ #
    #: Protected attribute -> qualified methods allowed to write it.
    #: A write anywhere else (any file in the scan) is an error.
    protected_state: dict[str, frozenset[str]] = dataclasses.field(
        default_factory=lambda: {
            "current_term": frozenset(
                {
                    "RaftNode.__init__",
                    "RaftNode._become_follower",
                    "RaftNode._become_candidate",
                    "RaftNode._restore_durable",
                }
            ),
            "voted_for": frozenset(
                {
                    "RaftNode.__init__",
                    "RaftNode._become_follower",
                    "RaftNode._become_candidate",
                    "RaftNode._grant_vote",
                    "RaftNode._restore_durable",
                }
            ),
            # The membership record is written only by its own methods, and
            # "who counts" is decided only by the one quorum builder.
            "_base": frozenset(
                {
                    "ConfigLog.__init__",
                    "ConfigLog.rebase",
                    "ConfigLog.rebuild",
                }
            ),
            "_changes": frozenset({"ConfigLog.__init__", "ConfigLog.rebuild"}),
            "_quorum": frozenset({"RaftNode._refresh_membership"}),
            # The leader's per-follower records live exactly as long as
            # the peer is in the reign: one builder, one editor, two resets.
            "progress": frozenset(
                {
                    "RaftNode._reset_volatile",
                    "RaftNode._become_leader",
                    "RaftNode._apply_membership_change",
                    "RaftNode._teardown_leadership",
                }
            ),
        }
    )

    # -- durable-write hygiene (rule family 6) ------------------------- #
    #: Restricted log mutator -> qualified methods allowed to call it
    #: (as ``<x>.log.<mutator>(...)`` or via a ``log`` alias).  These are
    #: the storage-backed mutators whose persist barriers cover the
    #: write; a call anywhere else mutates state the WAL never journals.
    durable_log_mutators: dict[str, frozenset[str]] = dataclasses.field(
        default_factory=lambda: {
            "append_new": frozenset(
                {
                    "RaftNode._become_leader",
                    "RaftNode._on_client_request",
                    "RaftNode._flush_batch",
                    "RaftNode.propose_config_change",
                }
            ),
            "try_append": frozenset({"RaftNode._on_append_entries"}),
            "compact": frozenset({"RaftNode._maybe_compact"}),
            "install_snapshot": frozenset(
                {
                    "RaftNode._on_install_snapshot",
                    "RaftNode._restore_durable",
                }
            ),
        }
    )
    #: Qualified methods allowed to assign ``.snapshot`` (each pairs the
    #: assignment with a covering ``storage.save_snapshot``).
    durable_snapshot_writers: frozenset[str] = frozenset(
        {
            "RaftNode.__init__",
            "RaftNode._restore_durable",
            "RaftNode._send_snapshot",
            "RaftNode._maybe_compact",
            "RaftNode._on_install_snapshot",
        }
    )

    #: The ``LogEntry`` slot caching the entry's encoded WAL record, and
    #: the one ``(modpath, function)`` allowed to write it: every replica's
    #: WAL shares the record, so faults must install tampered *copies*.
    entry_record_slot: str = "_wal"
    entry_record_writer: tuple[str, str] = (
        "repro/storage/simdisk.py",
        "_encode_entry",
    )

    # -- node-clock hygiene (rule family 7) ----------------------------- #
    #: Modpath prefixes where protocol code must read time through its
    #: :class:`~repro.sim.clock.NodeClock` adapter (``self._now()`` /
    #: ``clock.now()``) so per-node skew/drift can never be bypassed.  A
    #: raw ``loop.now`` read here is a timer that ignores the node's own
    #: clock — the gray-failure experiments would silently measure the
    #: wrong thing.
    clock_scopes: tuple[str, ...] = (
        "repro/raft/",
        "repro/dynatune/",
    )
    #: Receiver names that denote the shared event loop; reading ``.now``
    #: off any of them (directly or through an attribute chain such as
    #: ``self.loop.now``) is what the rule flags.
    clock_loop_names: frozenset[str] = frozenset({"loop", "_loop"})
    #: Qualified methods exempt from the rule — adapters that *define*
    #: the boundary (none needed in the real tree today; the knob exists
    #: so a future wall-clock runtime shim can register itself).
    clock_exempt: frozenset[str] = frozenset()

    # -- knob liveness: config fields and parameters (rule family 8) ---- #
    #: ``(modpath, class)`` of every config dataclass whose each field
    #: must be passed by keyword by some caller outside its module.
    knob_configs: tuple[tuple[str, str], ...] = (
        ("repro/raft/types.py", "RaftConfig"),
        ("repro/dynatune/config.py", "DynatuneConfig"),
        ("repro/experiments/elastic.py", "ElasticConfig"),
        ("repro/experiments/durability.py", "DurabilityConfig"),
        ("repro/experiments/grayfail.py", "GrayfailConfig"),
        ("repro/experiments/soak.py", "SoakConfig"),
        ("repro/experiments/serving.py", "ServingConfig"),
        ("repro/experiments/scenario_matrix.py", "ScenarioMatrixConfig"),
        ("repro/experiments/fuzz_campaign.py", "FuzzCampaignConfig"),
        ("repro/experiments/fig4_election.py", "Fig4Config"),
        ("repro/experiments/fig5_throughput.py", "Fig5Config"),
        ("repro/experiments/fig6_rtt.py", "Fig6Config"),
        ("repro/experiments/fig7_loss.py", "Fig7Config"),
        ("repro/experiments/fig_scale.py", "ScaleSweepConfig"),
        ("repro/experiments/ablations.py", "AblationConfig"),
        ("repro/cluster/workload.py", "FluidWorkloadConfig"),
        ("repro/cluster/builder.py", "ClusterConfig"),
        ("repro/fuzz/generator.py", "GenConfig"),
        ("repro/fuzz/oracle.py", "FuzzTrialConfig"),
        ("repro/fuzz/workload.py", "WorkloadConfig"),
    )
    #: Directories (relative to the scanned root) whose ``.py`` files
    #: count as callers besides the scanned tree itself; missing ones are
    #: skipped, so fixture trees need not provide them.  Rule family 10
    #: resolves an inline copy's ``tests/<file>.py::<test>`` through them.
    knob_user_roots: tuple[str, ...] = (
        "../tests",
        "../benchmarks",
        "../examples",
    )
    #: Directories whose calls count for ``param-knob-liveness`` besides
    #: the scanned tree: a defaulted parameter only tests or examples pass
    #: is a constant with a name.
    knob_param_user_roots: tuple[str, ...] = ("../benchmarks",)
    #: ``(modpath, forwarder, registry)``: a keyword passed to the
    #: forwarder (which splats ``**overrides`` into a builder looked up in
    #: the module-level dict ``registry``) counts for each builder whose
    #: key the call selects — its literal first argument, or else any key
    #: the calling file names.
    knob_param_forwarders: tuple[tuple[str, str, str], ...] = (
        ("repro/scenarios/library.py", "build_scenario", "SCENARIO_BUILDERS"),
    )

    # -- annotation floor (rule family 9) ------------------------------- #
    #: Modpath prefixes of the typed island (``mypy.ini``'s strict set):
    #: every ``def`` there annotates each parameter and its return.
    annotation_scopes: tuple[str, ...] = ("repro/raft/", "repro/sim/")


DEFAULT_CONFIG = RepolintConfig()
