"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.dynatune.config import DynatuneConfig
from repro.dynatune.policy import DynatunePolicy, StaticPolicy
from repro.fuzz.history import KVOp, OpHistory
from repro.net.network import Network
from repro.raft.client import RaftClient
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog


@pytest.fixture
def loop() -> EventLoop:
    return EventLoop()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=1234)


@pytest.fixture
def trace() -> TraceLog:
    return TraceLog()


@pytest.fixture
def network(loop: EventLoop, rngs: RngRegistry) -> Network:
    return Network(loop, rngs)


def make_raft_cluster(
    n: int = 3,
    *,
    seed: int = 5,
    rtt_ms: float = 20.0,
    loss: float = 0.0,
    **config_kwargs,
) -> Cluster:
    """A small static-policy Raft cluster for protocol tests.

    Fast RTT keeps elections quick; tests that need Dynatune use
    :func:`make_dynatune_cluster` instead.
    """
    cluster = build_cluster(
        ClusterConfig(n_nodes=n, seed=seed, rtt_ms=rtt_ms, loss=loss, **config_kwargs),
        lambda name: StaticPolicy(election_timeout_ms=300.0, heartbeat_interval_ms=50.0),
    )
    cluster.start()
    return cluster


def make_dynatune_cluster(
    n: int = 5,
    *,
    seed: int = 5,
    rtt_ms: float = 50.0,
    loss: float = 0.0,
    dynatune: DynatuneConfig | None = None,
    **config_kwargs,
) -> Cluster:
    cfg = dynatune if dynatune is not None else DynatuneConfig()
    cluster = build_cluster(
        ClusterConfig(n_nodes=n, seed=seed, rtt_ms=rtt_ms, loss=loss, **config_kwargs),
        lambda name: DynatunePolicy(cfg),
    )
    cluster.start()
    return cluster


def add_recorded_client(cluster: Cluster, name: str, **kwargs) -> RaftClient:
    """Attach a client that records its operations in its own
    :class:`OpHistory` (read back with :func:`completed_ops`)."""
    return cluster.add_client(name, history=OpHistory(), **kwargs)


def completed_ops(client: RaftClient) -> list[KVOp]:
    """The operations the client saw complete, in invocation order."""
    return client.history.completed_ops()


@pytest.fixture
def raft_cluster() -> Cluster:
    return make_raft_cluster()


@pytest.fixture
def dynatune_cluster() -> Cluster:
    return make_dynatune_cluster()
