"""``tools.fixpoints``: the lock file holds, and a moved entry or a failed
gate is named."""

import dataclasses
import importlib
import json
import pathlib

import pytest

from tools import fixpoints

LOCKED = json.loads(pathlib.Path(fixpoints.LOCK).read_text())
COMMITTED = LOCKED["smoke"]
CAMPAIGNS = LOCKED["campaign"]
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


@pytest.fixture(scope="module")
def smoke_run():
    """``fixpoints.smoke_run``, each entry computed once for this module:
    the two tests below share the sub-second entries."""
    memo: dict[str, tuple[str, list[str]]] = {}

    def run(name: str) -> tuple[str, list[str]]:
        if name not in memo:
            memo[name] = fixpoints.smoke_run(name)
        return memo[name]

    return run


def test_sub_second_entries_hold(smoke_run):
    assert {name: smoke_run(name)[0] for name in SUB_SECOND} == {
        name: COMMITTED[name] for name in SUB_SECOND
    }


@pytest.mark.parametrize("name", TIER1)
def test_entry_holds(smoke_run, name):
    assert smoke_run(name) == (COMMITTED[name], [])


def test_default_campaign_entry_holds():
    assert fixpoints.campaign_run("fuzz_default") == (CAMPAIGNS["fuzz_default"], [])


def lock_copy(tmp_path, monkeypatch, names, tampered):
    """Point the tool at a copy of the lock holding ``names``' committed
    entries, with ``tampered`` ones overwritten."""
    lock = {
        section: {name: locked[name] for name in names if name in locked}
        for section, locked in LOCKED.items()
    }
    for name in tampered:
        lock["campaign" if name in CAMPAIGNS else "smoke"][name] = "0" * 64
    path = tmp_path / "FIXPOINTS.json"
    path.write_text(json.dumps(lock, indent=2) + "\n")
    monkeypatch.setattr(fixpoints, "LOCK", str(path))
    return path


def test_check_fails_and_names_the_entry_that_moved(tmp_path, monkeypatch, capsys):
    names = ["fig4_election", "fig5_throughput", "fuzz_gray"]
    lock_copy(tmp_path, monkeypatch, names, ["fig5_throughput", "fuzz_gray"])
    assert fixpoints.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "2 of 3 entries moved: fig5_throughput, fuzz_gray" in err
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


def test_check_fails_and_names_the_campaign_whose_trial_failed(
    tmp_path, monkeypatch, capsys
):
    lock_copy(tmp_path, monkeypatch, ["fig4_election"], ["fuzz_default"])
    monkeypatch.setattr(fixpoints, "CAMPAIGNS", {"fuzz_default": (None, 2, 1107)})
    module = importlib.import_module("repro.experiments.fuzz_campaign")
    real = module.run_trial

    def planted(config, scenario):
        result = real(config, scenario)
        return dataclasses.replace(result, violations=("planted violation",))

    monkeypatch.setattr(module, "run_trial", planted)
    assert fixpoints.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "fuzz_default: 2 gate(s) failed" in err
    assert "trial 0 (raft) failed: planted violation" in err
    assert "fig4_election" not in err


def test_bless_rewrites_only_the_named_entries(tmp_path, monkeypatch):
    names = ["fig5_throughput", "serving"]
    path = lock_copy(tmp_path, monkeypatch, names, names)
    assert fixpoints.main(["--bless", "fig5_throughput"]) == 0
    assert json.loads(path.read_text())["smoke"] == {
        "fig5_throughput": COMMITTED["fig5_throughput"],
        "serving": "0" * 64,
    }
