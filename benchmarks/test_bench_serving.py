"""Serving fast-path bench: the ISSUE-8 acceptance number.

Runs the closed-loop serving grid (see ``repro.experiments.serving``)
once and records the headline throughput per mode in ``extra_info``, so
a ``--benchmark-json`` dump carries the fast-path speedup next to the
wall-clock timings.  The ≥ 3× gate is asserted here on the
**simulated** ops/sec (seed-deterministic); wall-clock ops/sec is
recorded advisory-only, like the memory trajectory.
"""

from repro.experiments import grid, serving


def test_serving_fastpath_speedup(once, benchmark):
    cfg = serving.ServingConfig(n_clients=64, duration_ms=18_000.0)
    runs = once(grid.run, serving.GRID, cfg)

    for r in runs:
        benchmark.extra_info[f"{r.mode}_ops_per_sim_s"] = round(r.ops_per_sim_s)
        benchmark.extra_info[f"{r.mode}_ops_per_wall_s"] = round(r.ops_per_wall_s)
    benchmark.extra_info["serving_speedup"] = round(serving.speedup(runs), 2)
    benchmark.extra_info["reads_lease"] = grid.find(runs, mode="lease").reads_lease
    benchmark.extra_info["reads_readindex"] = grid.find(
        runs, mode="readindex"
    ).reads_readindex

    # The full gate set: safety clean in every mode, fast paths covered,
    # the drift control always falling back, speedup >= 3x.
    assert serving.check(runs) == []
    assert serving.speedup(runs) >= serving.MIN_SPEEDUP

    # The fast path must not buy throughput with dropped requests.
    for r in runs:
        assert r.availability >= serving.MIN_AVAILABILITY, r.mode
