"""The shared grid harness, over the fault grids and the paper figures."""

import re

import pytest

from repro.experiments import (
    ablations,
    durability,
    elastic,
    fig4_election,
    fig5_throughput,
    fig6_rtt,
    fig7_loss,
    fig8_geo,
    fig_scale,
    grayfail,
    grid,
    scenario_matrix,
    serving,
    soak,
)

GRIDS = [
    elastic.GRID,
    durability.GRID,
    grayfail.GRID,
    soak.GRID,
    serving.GRID,
    fig4_election.GRID,
    fig5_throughput.GRID,
    fig6_rtt.GRID,
    fig7_loss.GRID,
    fig8_geo.GRID,
    fig_scale.GRID,
    scenario_matrix.GRID,
    ablations.GRID,
]

#: ``--smoke --system raft`` gates that were already failing when the
#: harness was introduced (same digests, same failures as the hand-rolled
#: CLIs it replaced).  Pinned so a protocol fix has to delete its entry.
KNOWN_RED = {
    "serving": "a static-policy lease never falls back to ReadIndex",
}


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: g.name)
def test_cli_prints_a_jobs_invariant_digest_and_exits_by_the_gates(
    g, monkeypatch, capsys
):
    # Each grid runs its own first system (Fig. 7 has no raft), except a
    # known-red one, whose failing gate is raft's.
    first = "raft" if g.name in KNOWN_RED else g.systems[0]
    monkeypatch.setenv("REPRO_JOBS", "1")
    code = grid.main(g, ["--smoke", "--system", first, "--digest"])
    printed = re.search(
        r"^digest: ([0-9a-f]{64})$", capsys.readouterr().out, re.MULTILINE
    ).group(1)

    monkeypatch.setenv("REPRO_JOBS", "2")
    runs = grid.run(g, g.smoke, systems=(first,))
    assert grid.digest(runs, exclude=g.digest_exclude) == printed

    problems = (g.smoke_check or g.check)(runs)
    assert code == (1 if problems else 0)
    assert bool(problems) == (g.name in KNOWN_RED), problems

    assert grid.find(runs, system=first) is runs[0]
    with pytest.raises(KeyError):
        grid.find(runs, system="paxos")


def test_axis_filter_runs_only_the_selected_cells():
    g = durability.GRID
    runs = grid.run(g, g.smoke, systems=("raft",), family=["ideal", "torn_tail"])
    assert [(r.system, r.family) for r in runs] == [
        ("raft", "ideal"),
        ("raft", "torn_tail"),
    ]
    assert g.check(runs) == []
