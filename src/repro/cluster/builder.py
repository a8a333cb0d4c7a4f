"""Cluster assembly: wire sim + net + raft + policy into a runnable system.

``build_cluster`` is the single entry point every experiment, example and
integration test uses.  The *only* thing that differs between the paper's
four systems is the ``policy_factory`` argument:

====================  =====================================================
System                policy_factory
====================  =====================================================
Raft (baseline)       ``lambda name: StaticPolicy.raft_default()``
Raft-Low              ``lambda name: StaticPolicy.raft_low()``
Dynatune              ``lambda name: DynatunePolicy(DynatuneConfig())``
Fix-K                 ``lambda name: DynatunePolicy(DynatuneConfig(fixed_k=10))``
====================  =====================================================
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from repro.cluster.capacity import BilledPort, CostModel
from repro.dynatune.policy import TuningPolicy
from repro.net.network import Network
from repro.net.topology import aws_geo_topology, uniform_topology
from repro.raft.client import RaftClient
from repro.raft.membership import ClusterConfig as MembershipConfig
from repro.raft.node import RaftNode
from repro.raft.state_machine import KVStore
from repro.raft.types import RaftConfig
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.loop import EventLoop
from repro.sim.process import ProcessState
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog, TraceRecord
from repro.storage import DiskFaultConfig, SimDiskStorage, Storage

__all__ = ["ClusterConfig", "Cluster", "build_cluster"]


@dataclasses.dataclass(slots=True, frozen=True)
class ClusterConfig:
    """Shape and environment of a simulated cluster.

    Attributes:
        n_nodes: cluster size (paper uses 5, 17, 65).
        seed: experiment seed — every random stream derives from it.
        rtt_ms: uniform pairwise RTT (ignored for the AWS topology).
        jitter_sigma_ms: Gaussian one-way jitter; 0 disables.  Default
            0.1 ms matches a netem constant-delay path (§IV-B injects no
            intentional jitter; kernel queueing leaves ~0.1 ms).  This
            matters: Dynatune at zero loss sends exactly one heartbeat per
            election timeout (K = 1, h = Et), so the false-timeout rate is
            roughly ``jitter / Et`` per heartbeat — 1 ms of jitter would be
            an order of magnitude noisier than the paper's testbed.
        loss: initial per-direction loss rate.
        raft: protocol configuration shared by all nodes.
        topology: ``"uniform"`` (single-host testbed) or ``"aws"``
            (five-region geo deployment, §IV-D).
        cores_per_node: container CPU allocation (4 in §IV-A, 2 in §IV-C2).
        with_cost_model: enable CPU accounting — each node is wired to the
            fabric through a :class:`~repro.cluster.capacity.BilledPort`
            (the election-focused experiments leave it off, and then no
            port exists).
        storage: durable-storage backend — ``"ideal"`` (the always-durable
            default; bit-identical to the pre-storage behaviour) or
            ``"simdisk"`` (checksummed WAL with seeded fault injection,
            one ``disk/<name>`` RNG stream per node).
        disk_faults: fault knobs for the simdisk backend (ignored for
            ideal storage).

    Every node starts on an identity clock; the
    :class:`~repro.scenarios.steps.SetClock` step skews one at run time.
    """

    n_nodes: int = 5
    seed: int = 1
    rtt_ms: float = 100.0
    jitter_sigma_ms: float = 0.1
    loss: float = 0.0
    raft: RaftConfig = dataclasses.field(default_factory=RaftConfig)
    topology: str = "uniform"
    cores_per_node: float = 4.0
    with_cost_model: bool = False
    storage: str = "ideal"
    disk_faults: DiskFaultConfig | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes!r}")
        if not (0.0 <= self.jitter_sigma_ms < math.inf):  # also rejects NaN
            raise ValueError(
                f"jitter_sigma_ms must be finite and >= 0, got {self.jitter_sigma_ms!r}"
            )
        if self.topology not in ("uniform", "aws"):
            raise ValueError(f"topology must be 'uniform' or 'aws', got {self.topology!r}")
        if self.storage not in ("ideal", "simdisk"):
            raise ValueError(
                f"storage must be 'ideal' or 'simdisk', got {self.storage!r}"
            )


class Cluster:
    """A wired, runnable cluster (returned by :func:`build_cluster`)."""

    def __init__(
        self,
        config: ClusterConfig,
        loop: EventLoop,
        rngs: RngRegistry,
        trace: TraceLog,
        network: Network,
        cost_model: CostModel | None,
        placement: dict[str, str] | None,
        policy_factory: Callable[[str], TuningPolicy],
    ) -> None:
        self.config = config
        self.loop = loop
        self.rngs = rngs
        self.trace = trace
        self.network = network
        #: Every node ever part of the cluster (see :meth:`_install_node`).
        self.nodes: dict[str, RaftNode] = {}
        self.cost_model = cost_model
        #: node → AWS region (``None`` for the uniform topology).
        self.placement = placement
        #: Mints each node's policy (joiners from :meth:`spawn_node` too).
        self._policy_factory = policy_factory
        self._clients: list[RaftClient] = []
        self._started = False
        self._membership_enabled = False
        #: Removal targets already scheduled for decommissioning (the
        #: ``config_commit`` record fires once per node that applies it).
        self._finalized: set[str] = set()

    # -- lifecycle ----------------------------------------------------------- #

    @property
    def names(self) -> list[str]:
        return list(self.nodes)

    def start(self) -> None:
        """Arm every node's initial election timer."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for node in self.nodes.values():
            node.start()

    def run_until(self, t_ms: float) -> None:
        self.loop.run_until(t_ms)

    def run_for(self, duration_ms: float) -> None:
        self.loop.run_until(self.loop.now + duration_ms)

    # -- queries ----------------------------------------------------------------- #

    def node(self, name: str) -> RaftNode:
        return self.nodes[name]

    def add_client(
        self,
        name: str,
        *,
        rtt_ms: float | None = None,
        retry_timeout_ms: float = 1000.0,
        history: object | None = None,
        resubmit_on_timeout: bool = True,
    ) -> RaftClient:
        """Attach a client endpoint with links to every cluster node.

        Args:
            rtt_ms: client↔server RTT; defaults to the cluster's pairwise
                RTT (clients co-located with the service, as in §IV-B2).
            history: optional operation recorder (see
                :class:`repro.fuzz.history.OpHistory`).
            resubmit_on_timeout: pass ``False`` for the at-most-once client
                the linearizability oracle requires.
        """
        cfg = self.config
        rtt = cfg.rtt_ms if rtt_ms is None else rtt_ms
        client = RaftClient(
            self.loop,
            name,
            self.network,
            self.names,
            retry_timeout_ms=retry_timeout_ms,
            trace=self.trace,
            history=history,
            resubmit_on_timeout=resubmit_on_timeout,
        )
        for peer in self.names:
            for src, dst in ((name, peer), (peer, name)):
                self.network.connect(src, dst, rtt / 2.0, cfg.jitter_sigma_ms, cfg.loss)
        self.network.attach(client)
        self._clients.append(client)
        return client

    def leader(self) -> str | None:
        """The live leader with the highest term, or ``None``.

        Transiently two nodes can believe they lead (a deposed leader that
        has not yet heard of its successor); the higher term is the real
        one by election safety.  A decommissioned ex-leader still carries
        its old role attribute but is no part of the cluster.
        """
        leaders = [
            n
            for n in self.nodes.values()
            if n.is_leader and n.state is not ProcessState.STOPPED
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term).name

    def alive_nodes(self) -> list[RaftNode]:
        return [n for n in self.nodes.values() if n.alive]

    def run_until_leader(
        self, *, timeout_ms: float = 60_000.0, exclude: str | None = None
    ) -> str:
        """Advance the simulation until a leader (≠ ``exclude``) exists.

        Raises:
            TimeoutError: if no leader emerges within ``timeout_ms``.
        """
        loop = self.loop
        trace = self.trace
        # Every role or process-state change appends a trace record, so
        # between events that recorded nothing the answer cannot have changed.
        seen = -1
        deadline = loop.now + timeout_ms
        while loop.now < deadline:
            if len(trace) != seen:
                seen = len(trace)
                leader = self.leader()
                if leader is not None and leader != exclude:
                    return leader
            if not loop.step():
                break
        leader = self.leader()
        if leader is not None and leader != exclude:
            return leader
        raise TimeoutError(
            f"no leader (excluding {exclude!r}) within {timeout_ms} ms "
            f"(t={self.loop.now})"
        )

    # -- dynamic membership -------------------------------------------------- #

    def members(self) -> list[str]:
        """Names of nodes not decommissioned (spawned nodes included,
        removed nodes excluded).  ``nodes`` itself keeps every node ever
        part of the cluster so post-run verifiers can inspect the departed.
        """
        return [
            n.name for n in self.nodes.values() if n.state is not ProcessState.STOPPED
        ]

    def enable_membership(self) -> None:
        """Arm the decommissioning hook for dynamic-membership runs.

        Subscribes a trace listener that watches for committed ``remove``
        config entries and — as the operator would — stops the departed
        node and unplugs it from the fabric.  Opt-in (and idempotent)
        because a live trace listener forces record construction for every
        event kind; static-cluster runs keep the trace fast path.
        :meth:`spawn_node` and the membership scenario steps call this
        automatically.
        """
        if self._membership_enabled:
            return
        self._membership_enabled = True
        self.trace.subscribe(self._on_trace_record)

    def _on_trace_record(self, rec: TraceRecord) -> None:
        # Trace listeners must not re-enter the log, and stop()/detach()
        # both trace — so decommissioning is deferred to a control event.
        # First sighting wins: every member that applies the entry emits
        # its own config_commit record.
        if rec.kind != "config_commit" or rec.fields.get("change") != "remove":
            return
        target = rec.fields.get("target")
        if target is None or target in self._finalized:
            return
        self._finalized.add(target)
        self.loop.schedule(
            0.0,
            lambda name=target: self._finalize_removal(name),
            priority=PRIORITY_CONTROL,
        )

    def _finalize_removal(self, name: str) -> None:
        """Decommission a removed node: stop it (terminal — stale timers and
        in-flight deliveries become no-ops), detach its endpoint (sends to
        it become silent drops), and drop it from client rotations."""
        node = self.nodes.get(name)
        if node is not None:
            node.stop()
        self.network.detach(name)
        for client in self._clients:
            client.forget_server(name)
        self.trace.record(self.loop.now, "cluster", "node_decommissioned", target=name)

    def spawn_node(self, name: str) -> RaftNode:
        """Add a fresh node to a running cluster as a non-voting learner.

        Wires full-mesh links between the newcomer and every attached
        endpoint (nodes *and* clients), attaches and starts it, and adds it
        to client rotations.  The node starts with a learner-only
        configuration — it learns the real membership from the leader's
        append/snapshot stream once some member proposes ``add_learner``
        for it; until then it cannot campaign or vote.

        Names are never reused: a decommissioned node's identity stays
        retired (its old links remain as dead wiring).
        """
        if name in self.nodes:
            raise ValueError(f"node name {name!r} already used (names are not reused)")
        if self.config.topology != "uniform":
            raise ValueError("spawn_node supports the uniform topology only")
        self.enable_membership()
        cfg = self.config
        for peer in self.network.node_names():
            for src, dst in ((name, peer), (peer, name)):
                self.network.connect(src, dst, cfg.rtt_ms / 2.0, cfg.jitter_sigma_ms, cfg.loss)
        node = self._install_node(
            name, [name], MembershipConfig(voters=(), learners=(name,))
        )
        for client in self._clients:
            client.add_server(name)
        if self._started:
            node.start()
        return node

    def _install_node(
        self, name: str, peers: list[str], initial_config: MembershipConfig | None = None
    ) -> RaftNode:
        """Build one node and attach it to the fabric: directly, or — with
        CPU accounting on — behind a :class:`BilledPort` that is the node's
        ``network`` on one side and the fabric's endpoint on the other."""
        cfg, network, model = self.config, self.network, self.cost_model
        port = BilledPort(model, network, name) if model is not None else None
        node = self.nodes[name] = RaftNode(
            loop=self.loop,
            name=name,
            peers=peers,
            network=port if port is not None else network,
            config=cfg.raft,
            policy=self._policy_factory(name),
            state_machine=KVStore(),
            trace=self.trace,
            rng=self.rngs.stream(f"raft/{name}"),
            initial_config=initial_config,
            storage=_node_storage(cfg, self.rngs, name),
        )
        if port is not None:
            port.node = node
        network.attach(node if port is None else port)
        return node


def _node_storage(
    config: ClusterConfig, rngs: RngRegistry, name: str
) -> Storage | None:
    """Mint one node's storage backend (``None`` → the node's own ideal
    default).  Simdisk draws from a dedicated ``disk/<name>`` stream so
    fault draws never perturb the raft/net streams existing seeds pin."""
    if config.storage == "ideal":
        return None
    return SimDiskStorage(rngs.stream(f"disk/{name}"), config.disk_faults)


def build_cluster(
    config: ClusterConfig,
    policy_factory: Callable[[str], TuningPolicy],
) -> Cluster:
    """Construct a cluster per ``config`` with one policy per node."""
    loop = EventLoop()
    rngs = RngRegistry(config.seed)
    trace = TraceLog()
    network = Network(loop, rngs)
    names = [f"n{i}" for i in range(1, config.n_nodes + 1)]

    placement: dict[str, str] | None = None
    if config.topology == "uniform":
        uniform_topology(
            network,
            names,
            rtt_ms=config.rtt_ms,
            jitter_sigma_ms=config.jitter_sigma_ms,
            loss=config.loss,
        )
    else:
        placement = aws_geo_topology(network, names, loss=config.loss)

    cluster = Cluster(
        config=config,
        loop=loop,
        rngs=rngs,
        trace=trace,
        network=network,
        cost_model=(
            CostModel(cores=config.cores_per_node) if config.with_cost_model else None
        ),
        placement=placement,
        policy_factory=policy_factory,
    )
    for name in names:
        cluster._install_node(name, names)
    return cluster
