"""``tools.fixpoints``: the lock file holds, and a moved entry or a failed
gate is named."""

import dataclasses
import importlib
import json
import pathlib

import pytest

from tools import fixpoints

COMMITTED = json.loads(pathlib.Path(fixpoints.LOCK).read_text())["smoke"]
#: The entries that run in under a second each on a 2-vCPU host.
SUB_SECOND = ["fig4_election", "fig5_throughput", "fig8_geo", "fig_scale"]
#: The entries tier-1 checks: the four that run in under a second each on
#: a 2-vCPU host, and the four paper-figure grids whose smoke run is the
#: figure's exact pin (``scenario_matrix``'s is its 25-node subset).
TIER1 = [
    *SUB_SECOND,
    "fig6_rtt",
    "fig7_loss",
    "scenario_matrix",
    "ablations",
]


def test_sub_second_entries_hold():
    assert {name: fixpoints.smoke_run(name)[0] for name in SUB_SECOND} == {
        name: COMMITTED[name] for name in SUB_SECOND
    }


@pytest.mark.parametrize("name", TIER1)
def test_entry_holds(name):
    assert fixpoints.smoke_run(name) == (COMMITTED[name], [])


def lock_copy(tmp_path, monkeypatch, names, tampered):
    """Point the tool at a copy of the lock holding ``names``' committed
    entries, with ``tampered`` ones overwritten."""
    smoke = {name: COMMITTED[name] for name in names}
    smoke.update({name: "0" * 64 for name in tampered})
    path = tmp_path / "FIXPOINTS.json"
    path.write_text(json.dumps({"smoke": smoke}, indent=2) + "\n")
    monkeypatch.setattr(fixpoints, "LOCK", str(path))
    return path


def test_check_fails_and_names_the_entry_that_moved(tmp_path, monkeypatch, capsys):
    lock_copy(tmp_path, monkeypatch, ["fig4_election", "fig5_throughput"], ["fig5_throughput"])
    assert fixpoints.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "1 of 2 entries moved: fig5_throughput" in err
    assert "fig4_election" not in err


def test_check_fails_and_names_the_grid_whose_gate_failed(tmp_path, monkeypatch, capsys):
    lock_copy(tmp_path, monkeypatch, ["fig4_election", "fig5_throughput"], [])
    module = importlib.import_module("repro.experiments.fig5_throughput")
    failing = dataclasses.replace(module.GRID, smoke_check=lambda runs: ["planted failure"])
    monkeypatch.setattr(module, "GRID", failing)
    assert fixpoints.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "fig5_throughput: 1 gate(s) failed" in err and "planted failure" in err
    assert "moved" not in err and "fig4_election" not in err


def test_bless_rewrites_only_the_named_entries(tmp_path, monkeypatch):
    names = ["fig5_throughput", "serving"]
    path = lock_copy(tmp_path, monkeypatch, names, names)
    assert fixpoints.main(["--bless", "fig5_throughput"]) == 0
    assert json.loads(path.read_text())["smoke"] == {
        "fig5_throughput": COMMITTED["fig5_throughput"],
        "serving": "0" * 64,
    }
