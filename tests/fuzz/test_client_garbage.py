"""Closed-loop clients keep no per-operation objects alive.

Every op a serving client completes is recorded once, in the shared
:class:`~repro.fuzz.history.OpHistory`, which keeps it as a flat row of
atomic values, so a finished op leaves nothing for the cyclic collector
to trace.  Counted
by type over ``gc.get_objects()`` (collection counts differ between
interpreter versions; object counts do not).
"""

import gc

from repro.cluster import ClusterConfig, build_cluster
from repro.experiments.common import make_policy_factory
from repro.experiments.serving import ServingConfig
from repro.fuzz.history import KVOp, OpHistory
from repro.fuzz.workload import WorkloadDriver
from repro.raft.state_machine import KVCommand

TYPES = (KVOp, KVCommand)


def live_objects() -> dict[type, int]:
    gc.collect()
    counts = dict.fromkeys(TYPES, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


def test_closed_loop_clients_keep_no_per_op_objects():
    before = live_objects()
    serving = ServingConfig(seed=7, n_clients=16)
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=serving.n_nodes,
            seed=serving.seed,
            rtt_ms=serving.rtt_ms,
            raft=serving.raft_config("lease"),
        ),
        make_policy_factory(serving.system),
    )
    workload = serving.workload("lease")
    history = OpHistory()
    driver = WorkloadDriver(cluster, workload, history, stop_ms=float("inf"))
    driver.install()
    cluster.start()
    # The first ops wait out the first election (their 2 s abandon
    # timeout); then 2 sim-s of steady closed-loop service.
    cluster.run_until(5_000.0)
    grown = {t: n - before[t] for t, n in live_objects().items()}

    served = len(history.completed_ops())
    puts = sum(1 for op in history.ops() if op.op == "put")
    assert served > 500 and 0 < puts < served  # the clients did work
    assert grown[KVOp] == 0
    # Puts live on in the log; each key's get and delete exist once.
    assert grown[KVCommand] <= puts + 2 * workload.n_keys
