"""Acceptance: planted violations in a copy of the real tree are caught.

This is the end-to-end proof that the linter bites on the actual
codebase shape (real imports, real registry, real dispatch table) — not
just on minimal fixtures.  One copy of ``src/`` gets every plant below;
each must surface as its own finding.
"""

import dataclasses
import shutil

import pytest

from conftest import REPO_ROOT

from tools.repolint import DEFAULT_CONFIG, run_repolint

PLANTS = {
    # 1. wall-clock call inside the simulation kernel
    "repro/sim/loop.py": """

import time


def _leaked_wall_clock() -> float:
    return time.time()
""",
    # 2. slotless message class + 4. message class without a _DISPATCH
    #    handler (distinct classes so each maps to exactly one rule)
    "repro/raft/messages.py": """

class RogueProbe:
    def __init__(self, term: int) -> None:
        self.term = term


class RogueCommand:
    __slots__ = ("term",)

    def __init__(self, term: int) -> None:
        self.term = term
""",
    # 3. typo'd trace kind in a consumer
    "repro/cluster/measurements.py": """

def _planted_probe(trace):
    return trace.of_kind("becom_leader")
""",
    # 5. a def inside the typed island (repro.raft, repro.sim) missing
    #    annotations — the same shape as plant 3, which sits outside it
    "repro/sim/timers.py": """

def _planted_untyped(loop, delay: float = 0.0):
    return loop.now + delay
""",
}


@pytest.fixture(scope="module")
def planted_report(tmp_path_factory):
    base = tmp_path_factory.mktemp("planted")
    root = base / "src"
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "repro")
    # The knob rules also read the callers beside the scanned root: point
    # them at the real ones (the copy is the shipped tree).
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        knob_user_roots=tuple(
            str(REPO_ROOT / rel) for rel in ("tests", "benchmarks", "examples")
        ),
        knob_param_user_roots=(str(REPO_ROOT / "benchmarks"),),
    )
    for modpath, plant in PLANTS.items():
        path = root / modpath
        path.write_text(path.read_text() + plant, encoding="utf-8")
    return run_repolint(root, config=config)


def test_planted_wall_clock_is_caught(planted_report):
    assert any(
        f.rule == "determinism-forbidden-call"
        and f.symbol == "time.time"
        and f.path == "repro/sim/loop.py"
        for f in planted_report.findings
    )


def test_planted_slotless_message_class_is_caught(planted_report):
    assert any(
        f.rule == "hotpath-slots" and f.symbol == "RogueProbe"
        for f in planted_report.findings
    )


def test_planted_typod_trace_kind_is_caught(planted_report):
    assert any(
        f.rule == "trace-unknown-consume" and f.symbol == "becom_leader"
        for f in planted_report.findings
    )


def test_planted_unhandled_message_is_caught(planted_report):
    assert any(
        f.rule == "dispatch-unhandled-message" and f.symbol == "RogueCommand"
        for f in planted_report.findings
    )


def test_planted_unannotated_def_is_caught(planted_report):
    (hit,) = [f for f in planted_report.findings if f.rule == "annotation-floor"]
    assert hit.path == "repro/sim/timers.py" and hit.symbol == "_planted_untyped"
    assert "loop, return" in hit.message  # the annotated ``delay`` is not named


def test_plants_are_the_only_findings(planted_report):
    # The copied tree is the shipped tree: nothing beyond the plants
    # (RogueProbe legitimately trips dispatch too — it has no handler).
    expected = {
        ("determinism-forbidden-call", "time.time"),
        ("hotpath-slots", "RogueProbe"),
        ("trace-unknown-consume", "becom_leader"),
        ("dispatch-unhandled-message", "RogueCommand"),
        ("dispatch-unhandled-message", "RogueProbe"),
        ("annotation-floor", "_planted_untyped"),
    }
    assert {(f.rule, f.symbol) for f in planted_report.findings} == expected
