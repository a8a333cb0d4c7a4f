"""Workload driver: history recording, client sequentiality, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.history import OpHistory
from repro.fuzz.linearizability import check_history
from repro.fuzz.workload import WorkloadConfig, WorkloadDriver, _BlockDraws, _ClientLoop
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


def test_config_rejects_non_integer_counts():
    # JSON carries 2.0 and true where a count belongs; both used to pass
    # and fail only later, in install() or the draws.
    bad = {
        "n_clients": (2.0, True, -1, 0),
        "n_keys": (2.5, True, 2.0, 0),
        "read_only_clients": (1.5, False, -1),
        "max_ops_per_client": (-3, 40.0, True),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError):
                WorkloadConfig(**{name: value})
    WorkloadConfig(n_clients=1, n_keys=1, read_only_clients=1, max_ops_per_client=0)


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
    """``lo + (hi - lo) * draws.random()`` is what ``Generator.uniform``
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
    ops = _ClientLoop(driver, None, _BlockDraws(rng), False)
    for req_id in range(draws):
        ops._open = req_id
        ops.settle(req_id)
        ops.settle(req_id)  # settled already: no second draw
    assert recorder.thinks == [float(twin.uniform(lo, hi)) for _ in range(draws)]
    assert all(type(t) is float for t in recorder.thinks)
    assert ops._draws.random() == twin.random()  # the same stream position


def test_a_late_answer_does_not_settle_the_open_op():
    """An op settles once, by the request id its client returned; a late
    answer to an earlier op must not settle the one that is open."""
    cluster, driver, history = drive(n_clients=2, stop_ms=3_000.0, run_ms=6_000.0)
    for client, ops in zip(driver.clients, driver._loops):
        assert client._next_id == ops.issued > 0
        assert [o.req_id for o in history.ops() if o.client == client.name] == list(
            range(ops.issued)
        )
    ops = driver._loops[0]
    done = next(o for o in history.ops() if o.client == ops._client.name and o.completed)
    newest = ops.issued - 1
    assert done.req_id < newest
    ops._open = newest
    pending = cluster.loop.pending
    ops.settle(done.req_id)  # stale: an earlier op's answer
    assert ops._open == newest and cluster.loop.pending == pending
    ops.settle(newest)
    assert ops._open == -1 and cluster.loop.pending == pending + 1


def test_each_op_settles_at_its_answer_or_its_fallback_deadline():
    """The next op of a client is issued one think after the earlier of
    its predecessor's answer and its fallback deadline (issue + op
    timeout + think_max): across a whole-cluster pause, where ops go
    unanswered, and after it, where the fallback armed for an answered op
    must re-arm for the open one."""
    cfg = WorkloadConfig(
        n_clients=4, op_timeout_ms=300.0, think_min_ms=5.0, think_max_ms=40.0,
        max_ops_per_client=10**6,
    )
    cluster = make_raft_cluster(3, seed=11)
    history = OpHistory()
    driver = WorkloadDriver(cluster, cfg, history, stop_ms=9_000.0)
    driver.install()
    cluster.run_until(3_000.0)
    for name in cluster.names:
        cluster.node(name).pause()
    cluster.run_until(5_000.0)
    for name in cluster.names:
        cluster.node(name).resume()
    cluster.run_until(10_000.0)
    fallback_ms = cfg.op_timeout_ms + cfg.think_max_ms
    by_client = {}
    for op in history.ops():
        by_client.setdefault(op.client, []).append(op)
    timed_out = 0
    for ops in by_client.values():
        for op, nxt in zip(ops, ops[1:]):
            deadline = op.invoke_ms + fallback_ms
            settled = deadline
            if op.return_ms is not None and op.return_ms <= deadline:
                settled = op.return_ms
            else:
                timed_out += 1
            think = nxt.invoke_ms - settled
            assert cfg.think_min_ms - 1e-9 <= think <= cfg.think_max_ms + 1e-9
    assert timed_out >= len(by_client)  # every client sat out the pause


#: The bounds the block draws must match numpy on: one value (no draw),
#: small and key-space-sized ranges, one that rejects nearly half its
#: products (2**31 + 3), and the largest Lemire bound.
_BOUNDS = (1, 2, 3, 4, 7, 100, 2**31 + 3, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    half=st.booleans(),
    draws=st.lists(st.one_of(st.none(), st.sampled_from(_BOUNDS)), max_size=400),
)
def test_block_draws_are_the_generators_draws(seed, half, draws):
    """``_BlockDraws`` replicates ``Generator.random()`` and
    ``Generator.integers(n)`` to the bit, interleaved in any order across
    block refills, from a stream that has already drawn a ``uniform`` —
    and, with ``half``, an ``integers`` that left half an output buffered.
    A numpy release that changes either algorithm fails here."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in (rng, twin):
        gen.uniform(0.0, 260.0)
        if half:
            gen.integers(5)
    blocks = _BlockDraws(rng)
    for n in draws:
        if n is None:
            got, want = blocks.random(), float(twin.random())
        else:
            got, want = blocks.integers(n), int(twin.integers(n))
        assert got == want and type(got) is type(want)
