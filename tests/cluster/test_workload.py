"""Workloads: open-loop driver and the Fig. 5 fluid model."""

import numpy as np
import pytest

from repro.cluster.workload import (
    BASE_LATENCY_MS,
    FluidWorkloadConfig,
    OpenLoopDriver,
    peak_throughput,
    run_rps_staircase,
)
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


# -- OpenLoopDriver --------------------------------------------------------- #


def test_open_loop_driver_submits_at_rate():
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    driver = OpenLoopDriver(
        c.loop, client, rps=100.0, rng=c.rngs.stream("load")
    )
    driver.start()
    c.run_for(5_000)
    driver.stop()
    assert driver.submitted == pytest.approx(500, rel=0.25)
    c.run_for(2_000)
    assert len(completed_ops(client)) >= driver.submitted * 0.95


def test_open_loop_driver_validation():
    c = make_raft_cluster(1)
    client = c.add_client("cl")
    with pytest.raises(ValueError):
        OpenLoopDriver(c.loop, client, rps=0.0, rng=c.rngs.stream("x"))


# -- fluid model -------------------------------------------------------------- #


def test_fluid_config_validation():
    with pytest.raises(ValueError):
        FluidWorkloadConfig(service_cost_ms=0.0)
    with pytest.raises(ValueError):
        FluidWorkloadConfig(cores=0.0)
    with pytest.raises(ValueError):
        FluidWorkloadConfig(overhead_factor=0.9)
    with pytest.raises(ValueError):
        FluidWorkloadConfig(heartbeat_cpu_ms_per_s=-1.0)
    with pytest.raises(ValueError):
        FluidWorkloadConfig(service_cv2=-1.0)


def test_capacity_formula():
    cfg = FluidWorkloadConfig(
        service_cost_ms=0.29, cores=4.0, heartbeat_cpu_ms_per_s=12.8
    )
    assert cfg.capacity_rps == pytest.approx((4000.0 - 12.8) / 0.29)


def test_overhead_factor_reduces_capacity():
    base = FluidWorkloadConfig()
    slowed = FluidWorkloadConfig(overhead_factor=1.068)
    assert slowed.capacity_rps < base.capacity_rps
    assert slowed.capacity_rps / base.capacity_rps == pytest.approx(1 / 1.068)


def test_staircase_throughput_saturates_at_capacity():
    cfg = FluidWorkloadConfig()
    results = run_rps_staircase(
        cfg, levels=[5_000.0, 10_000.0, 15_000.0, 20_000.0], dwell_s=5.0,
        rng=np.random.default_rng(0),
    )
    peak = peak_throughput(results)
    assert peak == pytest.approx(cfg.capacity_rps, rel=0.02)
    # below the knee, throughput tracks offered load
    assert results[0].throughput_rps == pytest.approx(5_000.0, rel=0.05)


def test_staircase_latency_rises_with_load():
    cfg = FluidWorkloadConfig()
    results = run_rps_staircase(
        cfg, levels=[2_000.0, 8_000.0, 13_000.0, 15_000.0], dwell_s=5.0,
        rng=np.random.default_rng(0),
    )
    lats = [r.mean_latency_ms for r in results]
    assert lats == sorted(lats)
    assert lats[0] == pytest.approx(BASE_LATENCY_MS, rel=0.1)
    assert lats[-1] > 2.0 * BASE_LATENCY_MS  # overload blow-up


def test_staircase_backlog_persists_across_levels():
    cfg = FluidWorkloadConfig()
    over = cfg.capacity_rps * 1.2
    results = run_rps_staircase(
        cfg, levels=[over, over], dwell_s=5.0, rng=np.random.default_rng(0)
    )
    # second overloaded level inherits the backlog: latency keeps climbing
    assert results[1].mean_latency_ms > results[0].mean_latency_ms


def test_peak_throughput_empty():
    assert peak_throughput([]) == 0.0


def test_p99_at_least_mean():
    cfg = FluidWorkloadConfig()
    results = run_rps_staircase(
        cfg, levels=[12_000.0, 14_000.0], dwell_s=5.0, rng=np.random.default_rng(1)
    )
    for r in results:
        assert r.p99_latency_ms >= r.mean_latency_ms * 0.999
