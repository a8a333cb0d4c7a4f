"""One end-to-end run per paper figure, gated on the figure's paper shape.

Each figure is simulated once, at the cheapest configuration that still
holds every gate: repetition counts and dwells shrink, the mechanisms do
not.  The figure's shape and its paper magnitudes are two tests over the
same module-scoped run.  ``python -m repro.experiments.<figure>``
regenerates a figure at the paper's parameters, which
:func:`test_full_grid_is_the_papers_experiment` holds.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    fig4_election,
    fig5_throughput,
    fig6_rtt,
    fig7_loss,
    fig8_geo,
    fig_scale,
    grid,
    soak,
)
from repro.experiments.common import SYSTEMS, make_policy_factory


def test_policy_factory_covers_all_systems():
    for s in SYSTEMS:
        factory = make_policy_factory(s)
        assert factory("n1") is not None
    with pytest.raises(ValueError):
        make_policy_factory("paxos")


#: Each full grid's base config against the paper's parameters (1000
#: kills, 60 s RTT and 180 s loss dwells, N up to 65), and the scaling
#: sweep's and the soak's long settings.
_PAPER = [
    (fig4_election.GRID, {"n_failures": 1000, "geo": False}),
    (fig5_throughput.GRID, {"repeats": 10}),
    (fig6_rtt.GRID, {"dwell_ms": 60_000.0}),
    (fig7_loss.GRID, {"sizes": (5, 17, 65), "dwell_ms": 180_000.0}),
    (fig8_geo.GRID, {"n_failures": 1000, "geo": True}),
    (fig_scale.GRID, {"sizes": (5, 25, 51, 101), "n_failures": 10}),
    (soak.GRID, {"duration_ms": 300_000.0}),
]


@pytest.mark.parametrize("grid_, paper", _PAPER, ids=[g.name for g, _ in _PAPER])
def test_full_grid_is_the_papers_experiment(grid_, paper):
    assert {k: getattr(grid_.full, k) for k in paper} == paper


@pytest.fixture(scope="module")
def fig4():
    return grid.run(fig4_election.GRID, fig4_election.Fig4Config(n_failures=60))


def test_fig4_shape_dynatune_beats_raft(fig4):
    raft = grid.find(fig4, system="raft")
    dyn = grid.find(fig4, system="dynatune")
    assert fig4_election.reduction(fig4, "detection") > 0.6
    assert dyn.mean_detection_ms < 400.0
    # §IV-E: Dynatune's election phase is longer (split votes).
    assert dyn.mean_election_ms > raft.mean_election_ms
    # CDFs well-formed
    xs, ps = dyn.ots_cdf
    assert ps[-1] == 1.0 and np.all(np.diff(xs) >= 0)


def test_fig4_election_performance(fig4):
    """Paper: detection 1205 → 237 ms (−80 %), OTS 1449 → 797 ms (−45 %)."""
    raft = grid.find(fig4, system="raft")
    dyn = grid.find(fig4, system="dynatune")
    assert fig4_election.reduction(fig4, "ots") > 0.15
    # Raft baseline magnitudes match the paper's measurements closely.
    assert 1000.0 < raft.mean_detection_ms < 1450.0
    assert 1200.0 < raft.mean_ots_ms < 1750.0
    # randomizedTimeout means: ~1.45 s (Raft) vs ~0.15 s (Dynatune).
    assert 1300.0 < raft.mean_randomized_timeout_ms < 1600.0
    assert dyn.mean_randomized_timeout_ms < 300.0


@pytest.fixture(scope="module")
def fig5():
    return grid.run(fig5_throughput.GRID, fig5_throughput.Fig5Config(repeats=1))


def test_fig5_shape_gap_and_knee(fig5):
    raft = grid.find(fig5, system="raft")
    dyn = grid.find(fig5, system="dynatune")
    assert 0.04 < fig5_throughput.peak_gap(fig5) < 0.09
    # Dynatune's knee sits to the left of Raft's.
    knee_raft = np.argmax(raft.throughput_rps >= raft.peak_rps * 0.999)
    knee_dyn = np.argmax(dyn.throughput_rps >= dyn.peak_rps * 0.999)
    assert knee_dyn <= knee_raft


def test_fig5_throughput_staircase(fig5):
    """Paper: Raft 13 678 req/s vs Dynatune 12 800 req/s (−6.4 %), latency
    rising from ≈ 200 ms toward ≈ 700 ms at the knee."""
    raft = grid.find(fig5, system="raft")
    dyn = grid.find(fig5, system="dynatune")
    assert 13_000 < raft.peak_rps < 14_500
    assert 12_200 < dyn.peak_rps < 13_500
    # Latency curve: flat-ish plateau near 200 ms, then the knee.
    assert raft.mean_latency_ms[0] < 230.0
    assert raft.mean_latency_ms[-1] > 500.0
    assert np.all(np.diff(raft.mean_latency_ms) > -1e-6)


_FIG6B = fig6_rtt.Fig6Config(pattern="radical", dwell_ms=2_000.0)


@pytest.fixture(scope="module")
def fig6b():
    return grid.run(fig6_rtt.GRID, _FIG6B, pattern=[_FIG6B.pattern])


def test_fig6_config_rejects_an_unknown_pattern():
    with pytest.raises(ValueError):
        fig6_rtt.Fig6Config(pattern="sawtooth")


def test_fig6_cell_reruns_alone_to_the_same_record(fig6b):
    # A cell is its own simulation: --system raft-low prints the numbers
    # the full figure does.
    alone = fig6_rtt.run_one(dataclasses.replace(_FIG6B, system="raft-low"))
    assert grid.digest([alone]) == grid.digest([grid.find(fig6b, system="raft-low")])


def test_fig6_radical_dynatune_survives_spike(fig6b):
    dyn = grid.find(fig6b, system="dynatune")
    assert dyn.false_detections > 0  # the spike is noticed...
    assert dyn.unnecessary_elections == 0  # ...but pre-vote absorbs it
    assert dyn.ots_total_ms == 0.0


def test_fig6b_radical_rtt(fig6b):
    raft = grid.find(fig6b, system="raft")
    low = grid.find(fig6b, system="raft-low")
    assert raft.ots_total_ms == 0.0  # Raft rides it out entirely
    # Raft-Low cannot elect while RTT > its randomizedTimeout: OTS roughly
    # the whole spike dwell.
    assert low.unnecessary_elections > 0
    assert low.ots_total_ms > 0.5 * _FIG6B.dwell_ms


@pytest.fixture(scope="module")
def fig6a():
    # Raft-Low's elections need the leader stalls (the default profile) and
    # dwells of at least 6 s at the elevated RTTs.
    return grid.run(fig6_rtt.GRID, fig6_rtt.Fig6Config(dwell_ms=6_000.0), pattern=["gradual"])


def test_fig6_gradual_dynatune_tracks_rtt(fig6a):
    dyn = grid.find(fig6a, system="dynatune")
    raft = grid.find(fig6a, system="raft")
    # Once warmed up, Dynatune's f+1 randTO stays within a small multiple
    # of the RTT while Raft's sits near 1.5 * 1000 ms.
    warmed = dyn.times_ms > 30_000.0
    ratio = dyn.kth_randomized_timeout_ms[warmed] / dyn.rtt_ms[warmed]
    assert np.nanmedian(ratio) < 4.0
    assert 1200.0 < np.nanmedian(raft.kth_randomized_timeout_ms) < 1800.0


def test_fig6a_gradual_rtt(fig6a):
    dyn = grid.find(fig6a, system="dynatune")
    raft = grid.find(fig6a, system="raft")
    low = grid.find(fig6a, system="raft-low")
    # Neither loses service...
    assert raft.ots_total_ms == 0.0
    assert raft.unnecessary_elections == 0
    assert dyn.ots_total_ms == 0.0
    assert dyn.unnecessary_elections == 0
    # ...while Raft-Low holds needless elections at elevated RTT.
    assert low.unnecessary_elections > 0
    assert low.ots_total_ms > 0.0


# A dwell of one CPU sample interval gives every loss level one sample.
_FIG7 = fig7_loss.Fig7Config(sizes=(5, 17), dwell_ms=5_000.0, warmup_ms=5_000.0)


@pytest.fixture(scope="module")
def fig7():
    return grid.run(fig7_loss.GRID, _FIG7)


def test_fig7_h_tracks_loss_and_fixk_flat(fig7):
    peak = max(_FIG7.loss_levels)
    for n in _FIG7.sizes:
        dyn = grid.find(fig7, system="dynatune", n_nodes=n)
        fix = grid.find(fig7, system="fix-k", n_nodes=n)
        # Fig. 7a: Dynatune lowers h as loss rises (K: 1 -> 6 at 30 %);
        # Fix-K stays pinned at Et/10 ≈ 20 ms.
        assert np.mean(dyn.h_at_loss(peak)) < 0.45 * np.mean(dyn.h_at_loss(0.0))
        assert np.nanstd(fix.h_ms) < 3.0
        assert 15.0 < np.nanmean(fix.h_ms) < 30.0
        # §IV-C2: no unnecessary elections for either system.
        assert dyn.unnecessary_elections == 0
        assert fix.unnecessary_elections == 0


def test_fig7_loss_staircase(fig7):
    for n in _FIG7.sizes:
        dyn = grid.find(fig7, system="dynatune", n_nodes=n)
        fix = grid.find(fig7, system="fix-k", n_nodes=n)
        # Fig. 7b: Fix-K's leader burns multiples of Dynatune's CPU, and the
        # follower load is far below the leader's.
        assert fix.leader_cpu.mean() > 2.0 * dyn.leader_cpu.mean()
        assert fix.follower_cpu.mean() < 0.2 * fix.leader_cpu.mean()
        # Dynatune's CPU peaks with the loss rate (the "peak pattern").
        mid = len(dyn.leader_cpu) // 2
        assert dyn.leader_cpu[mid - 2 : mid + 3].mean() > dyn.leader_cpu[:3].mean()
    # Leader CPU grows with cluster size for Fix-K (the scalability story).
    small, large = min(_FIG7.sizes), max(_FIG7.sizes)
    assert (
        grid.find(fig7, system="fix-k", n_nodes=large).leader_cpu.mean()
        > 2.0 * grid.find(fig7, system="fix-k", n_nodes=small).leader_cpu.mean()
    )


@pytest.fixture(scope="module")
def fig8():
    return grid.run(fig8_geo.GRID, fig8_geo.GRID.smoke)


def test_fig8_geo_election_performance(fig8):
    """Paper: detection 1137 → 213 ms (−81 %), OTS 1718 → 1145 ms (−33 %)."""
    raft = grid.find(fig8, system="raft")
    assert 950.0 < raft.mean_detection_ms < 1450.0
    assert 1400.0 < raft.mean_ots_ms < 2100.0


def test_fig8_shape_geo(fig8):
    raft = grid.find(fig8, system="raft")
    dyn = grid.find(fig8, system="dynatune")
    # Dynatune: detection collapses to RTT scale; OTS clearly reduced.
    assert dyn.mean_detection_ms < 450.0
    assert fig4_election.reduction(fig8, "detection") > 0.6
    assert fig4_election.reduction(fig8, "ots") > 0.1
    assert set(raft.placement.values()) == {
        "tokyo",
        "london",
        "california",
        "sydney",
        "saopaulo",
    }
