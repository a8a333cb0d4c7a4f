"""The shared grid harness, over the five grid experiments that use it."""

import re

import pytest

from repro.experiments import durability, elastic, grayfail, grid, serving, soak

GRIDS = [elastic.GRID, durability.GRID, grayfail.GRID, soak.GRID, serving.GRID]

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
    monkeypatch.setenv("REPRO_JOBS", "1")
    code = grid.main(g, ["--smoke", "--system", "raft", "--digest"])
    printed = re.search(
        r"^digest: ([0-9a-f]{64})$", capsys.readouterr().out, re.MULTILINE
    ).group(1)

    monkeypatch.setenv("REPRO_JOBS", "2")
    runs = grid.run(g, g.smoke(), systems=("raft",))
    assert grid.digest(runs, exclude=g.digest_exclude) == printed

    problems = (g.smoke_check or g.check)(runs)
    assert code == (1 if problems else 0)
    assert bool(problems) == (g.name in KNOWN_RED), problems

    assert grid.find(runs, system="raft") is runs[0]
    with pytest.raises(KeyError):
        grid.find(runs, system="paxos")


def test_axis_filter_runs_only_the_selected_cells():
    g = durability.GRID
    runs = grid.run(g, g.smoke(), systems=("raft",), family=["ideal", "torn_tail"])
    assert [(r.system, r.family) for r in runs] == [
        ("raft", "ideal"),
        ("raft", "torn_tail"),
    ]
    assert g.check(runs) == []
