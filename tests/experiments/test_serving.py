"""Serving grid: the client fast path's acceptance gates on a real run."""

from repro.experiments import grid, serving


def test_serving_fastpath_speedup():
    # The fast-path speed-up is asserted on simulated ops/sec, which is
    # seed-deterministic; wall-clock throughput is not gated.
    cfg = serving.ServingConfig(n_clients=64, duration_ms=18_000.0)
    runs = grid.run(serving.GRID, cfg)
    # Safety clean in every mode, fast paths covered, the drift control
    # always falling back, speed-up over the gate.
    assert serving.check(runs) == []
    assert serving.speedup(runs) >= serving.MIN_SPEEDUP
    # The fast path must not buy throughput with dropped requests.
    for r in runs:
        assert r.availability >= serving.MIN_AVAILABILITY, r.mode
