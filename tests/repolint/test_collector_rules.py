"""Rule family 11 (gc-control): true positives and near-miss guards."""

import pytest

from conftest import lint, rule_hits

from tools.repolint import DEFAULT_CONFIG
from tools.repolint.rules.collector import CollectorControlRule

GC = [CollectorControlRule(DEFAULT_CONFIG)]


@pytest.mark.parametrize(
    "call", ["disable()", "enable()", "freeze()", "unfreeze()", "set_threshold(0)"]
)
def test_each_collector_control_is_flagged(tmp_path, call):
    report = lint(
        tmp_path,
        {
            "repro/experiments/x.py": f"""\
            import gc

            def run() -> None:
                gc.{call}
            """
        },
        rules=GC,
    )
    (hit,) = rule_hits(report, "gc-control")
    assert hit.symbol == "gc." + call.split("(")[0]
    assert hit.path == "repro/experiments/x.py"


def test_aliased_and_from_imported_controls_are_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/x.py": """\
            import gc as collector
            from gc import freeze as pin

            def run() -> None:
                collector.set_threshold(100_000)
                pin()
            """
        },
        rules=GC,
    )
    hits = rule_hits(report, "gc-control")
    assert sorted(h.symbol for h in hits) == ["gc.freeze", "gc.set_threshold"]


def test_a_reference_without_a_call_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/cluster/x.py": """\
            import gc

            PAUSE = gc.disable
            """
        },
        rules=GC,
    )
    (hit,) = rule_hits(report, "gc-control")
    assert hit.symbol == "gc.disable"


def test_reading_the_collector_and_lookalike_methods_pass(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/fuzz/x.py": """\
            import gc

            class Timer:
                def disable(self) -> None:
                    pass

            def run(timer: Timer) -> int:
                gc.collect()
                gc.callbacks.append(print)
                timer.disable()
                disable = timer.disable
                disable()
                return len(gc.get_objects()) + gc.get_count()[0]
            """
        },
        rules=GC,
    )
    assert rule_hits(report, "gc-control") == []


def test_same_line_suppression_is_honoured(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/x.py": """\
            import gc

            # A test harness measuring without the collector.
            gc.disable()  # repolint: disable=gc-control
            """
        },
        rules=GC,
    )
    assert rule_hits(report, "gc-control") == []
    assert len(report.suppressed) == 1
