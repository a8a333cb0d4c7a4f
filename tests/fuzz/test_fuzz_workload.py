"""Workload driver: history recording, client sequentiality, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.history import OpHistory
from repro.fuzz.linearizability import check_history
from repro.fuzz.workload import WorkloadConfig, WorkloadDriver
from tests.conftest import make_raft_cluster


def drive(seed=9, stop_ms=8_000.0, run_ms=12_000.0, **cfg_kwargs):
    cluster = make_raft_cluster(5, seed=seed)
    history = OpHistory()
    driver = WorkloadDriver(
        cluster, WorkloadConfig(**cfg_kwargs), history, stop_ms=stop_ms
    )
    driver.install()
    cluster.run_until(run_ms)
    return cluster, driver, history


def test_config_rejects_non_finite_times():
    # A reproducer's JSON may carry NaN; it used to pass every check here.
    for name in ("op_timeout_ms", "think_min_ms", "think_max_ms", "start_ms", "client_rtt_ms"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                WorkloadConfig(**{name: value})
    WorkloadConfig(client_rtt_ms=10.0)


def test_healthy_cluster_history_is_rich_and_linearizable():
    _, driver, history = drive()
    ops = history.ops()
    assert driver.ops_issued == len(ops) > 30
    assert len(history.completed_ops()) > 0.8 * len(ops)
    assert check_history(ops)


def test_clients_are_sequential():
    _, _, history = drive()
    by_client = {}
    for o in history.ops():
        by_client.setdefault(o.client, []).append(o)
    for ops in by_client.values():
        ops.sort(key=lambda o: o.invoke_ms)
        for prev, nxt in zip(ops, ops[1:]):
            if prev.completed:
                # A client never invokes its next op before the previous
                # one settled (abandoned ops may stay open, but the next
                # invocation still waits for the abandon timeout).
                assert nxt.invoke_ms >= prev.return_ms


def test_put_values_are_unique():
    _, _, history = drive()
    values = [o.value for o in history.ops() if o.op == "put"]
    assert len(values) == len(set(values))


def test_workload_is_deterministic():
    def fingerprint():
        _, _, history = drive()
        return [
            (o.client, o.req_id, o.op, o.key, o.value, o.invoke_ms, o.return_ms)
            for o in history.ops()
        ]

    assert fingerprint() == fingerprint()


def test_stop_ms_bounds_issuing():
    _, _, history = drive(stop_ms=2_000.0)
    assert all(o.invoke_ms <= 2_000.0 for o in history.ops())


def test_max_ops_per_client_caps_issuing():
    _, driver, history = drive(max_ops_per_client=3, stop_ms=50_000.0, run_ms=60_000.0)
    by_client = {}
    for o in history.ops():
        by_client[o.client] = by_client.get(o.client, 0) + 1
    assert by_client and all(v <= 3 for v in by_client.values())


def test_closed_loop_clients_keep_the_pending_set_small():
    """Per client the loop holds one armed retry deadline, one armed
    fallback deadline and the op's own in-flight event or think pause —
    not one parked timeout pair per request of the last two seconds
    (3 000 events for these 64 clients before the deadline queues)."""
    n_clients = 64
    cluster = make_raft_cluster(5, seed=9)
    driver = WorkloadDriver(
        cluster,
        WorkloadConfig(
            n_clients=n_clients,
            n_keys=8,
            op_timeout_ms=2_000.0,
            think_min_ms=1.0,
            think_max_ms=3.0,
            max_ops_per_client=10**9,
        ),
        OpHistory(),
        stop_ms=float("inf"),
    )
    driver.install()
    peak = 0
    for t in range(500, 6_001, 250):
        cluster.run_until(float(t))
        peak = max(peak, cluster.loop.pending)
    assert driver.ops_issued > 20 * n_clients  # the load was real
    assert peak < 4 * n_clients + 64


class _ThinkRecorder:
    """Stands in for the cluster: ``loop.schedule`` keeps the think time."""

    def __init__(self):
        self.loop = self
        self.thinks = []

    def schedule(self, delay, callback, *, priority):
        self.thinks.append(delay)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    lo=st.floats(0.0, 1e4),
    width=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    draws=st.integers(1, 30),
)
def test_think_draw_is_generator_uniform_to_the_bit(seed, lo, width, draws):
    """``lo + (hi - lo) * rng.random()`` is what ``Generator.uniform``
    computes: same value, same stream position, ``lo == hi`` included."""
    hi = lo + width
    recorder = _ThinkRecorder()
    driver = WorkloadDriver(
        recorder,
        WorkloadConfig(think_min_ms=lo, think_max_ms=hi),
        OpHistory(),
        stop_ms=float("inf"),
    )
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    driver._rngs, driver._issued, driver._settled = [rng], [0], [True]
    for token in range(1, draws + 1):
        driver._issued[0], driver._settled[0] = token, False
        driver._settle(0, token)
        driver._settle(0, token)  # settled already: no second draw
    assert recorder.thinks == [float(twin.uniform(lo, hi)) for _ in range(draws)]
    assert all(type(t) is float for t in recorder.thinks)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_completion_token_is_the_request_id_plus_one():
    """The per-client completion callback recovers the op's token from the
    request id; a late answer to a superseded op must not settle the
    current one."""
    cluster, driver, history = drive(n_clients=2, stop_ms=3_000.0, run_ms=6_000.0)
    for client, issued in zip(driver.clients, driver._issued):
        assert client._next_id == issued > 0
        assert [o.req_id for o in history.ops() if o.client == client.name] == list(
            range(issued)
        )
    first = driver.clients[0].name
    done = next(o for o in history.ops() if o.client == first and o.completed)
    driver._settled[0] = False
    pending = cluster.loop.pending
    driver._completed(0, done.req_id)  # stale: token 1, while `issued` ops are out
    assert driver._settled[0] is False and cluster.loop.pending == pending
