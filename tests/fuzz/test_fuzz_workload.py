"""Workload driver: history recording, client sequentiality, determinism."""

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
