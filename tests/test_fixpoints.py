"""``tools.fixpoints``: the lock file holds, and a moved entry is named."""

import json
import pathlib

from tools import fixpoints

COMMITTED = json.loads(pathlib.Path(fixpoints.LOCK).read_text())["smoke"]
#: The entries that run in under a second each on a 2-vCPU host.
SUB_SECOND = ["fig4_election", "fig5_throughput", "fig8_geo", "fig_scale"]


def test_sub_second_entries_hold():
    assert {name: fixpoints.smoke_digest(name) for name in SUB_SECOND} == {
        name: COMMITTED[name] for name in SUB_SECOND
    }


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


def test_bless_rewrites_only_the_named_entries(tmp_path, monkeypatch):
    names = ["fig5_throughput", "serving"]
    path = lock_copy(tmp_path, monkeypatch, names, names)
    assert fixpoints.main(["--bless", "fig5_throughput"]) == 0
    assert json.loads(path.read_text())["smoke"] == {
        "fig5_throughput": COMMITTED["fig5_throughput"],
        "serving": "0" * 64,
    }
