"""Rule family 3 (trace-kind registry): emit/consume/registry agreement."""

from conftest import lint, rule_hits, write_tree

from tools.repolint import DEFAULT_CONFIG, run_repolint
from tools.repolint.engine import load_project
from tools.repolint.rules.tracekinds import (
    TraceRegistryRule,
    generate_trace_registry,
)

RULES = [TraceRegistryRule(DEFAULT_CONFIG)]


def registry_module(kinds: list[str]) -> str:
    body = "".join(f'    "{k}",\n' for k in kinds)
    return f"TRACE_KINDS = frozenset((\n{body}))\n"


def test_registered_emit_and_consume_pass(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/trace_kinds.py": registry_module(
                ["become_leader"]
                + list(DEFAULT_CONFIG.extra_trace_kinds)
            ),
            "repro/raft/x.py": """\
            def win(trace, now: float) -> None:
                trace.record(now, "n1", "become_leader", term=2)

            def query(trace):
                return trace.of_kind("become_leader")
            """,
        },
        rules=RULES,
    )
    assert report.findings == []


def test_unregistered_emit_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/trace_kinds.py": registry_module(
                list(DEFAULT_CONFIG.extra_trace_kinds)
            ),
            "repro/raft/x.py": """\
            def win(trace, now: float) -> None:
                trace.record(now, "n1", "become_leader", term=2)
            """,
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "trace-unregistered-emit")
    assert hit.symbol == "become_leader"
    assert hit.path == "repro/raft/x.py"


def test_stale_registry_entry_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/trace_kinds.py": registry_module(
                ["ghost_kind"] + list(DEFAULT_CONFIG.extra_trace_kinds)
            ),
            "repro/raft/x.py": """\
            def noop() -> None:
                pass
            """,
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "trace-stale-registry")
    assert hit.symbol == "ghost_kind"


def test_typod_consumer_kind_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/trace_kinds.py": registry_module(
                ["become_leader"]
                + list(DEFAULT_CONFIG.extra_trace_kinds)
            ),
            "repro/raft/x.py": """\
            def win(trace, now: float) -> None:
                trace.record(now, "n1", "become_leader", term=2)

            def query(trace):
                return trace.of_kind("becom_leader")
            """,
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "trace-unknown-consume")
    assert hit.symbol == "becom_leader"


def test_kind_via_module_constant_is_resolved(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/trace_kinds.py": registry_module(
                ["leader_gone"] + list(DEFAULT_CONFIG.extra_trace_kinds)
            ),
            "repro/raft/x.py": """\
            FAIL_KIND = "leader_gone"

            def fail(trace, now: float) -> None:
                trace.record(now, "n1", FAIL_KIND)
            """,
        },
        rules=RULES,
    )
    assert report.findings == []


def test_dynamic_kind_is_flagged_and_suppressible(tmp_path):
    files = {
        "repro/sim/trace_kinds.py": registry_module(
            list(DEFAULT_CONFIG.extra_trace_kinds)
        ),
        "repro/raft/x.py": """\
        def emit(trace, now: float, kind: str) -> None:
            trace.record(now, "n1", kind)
        """,
    }
    report = lint(tmp_path / "a", files, rules=RULES)
    (hit,) = rule_hits(report, "trace-dynamic-kind")
    assert hit.path == "repro/raft/x.py"

    files["repro/raft/x.py"] = """\
    def emit(trace, now: float, kind: str) -> None:
        trace.record(now, "n1", kind)  # repolint: disable=trace-dynamic-kind
    """
    report = lint(tmp_path / "b", files, rules=RULES)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_generated_registry_round_trips(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/raft/x.py": """\
            def win(trace, now: float) -> None:
                trace.record(now, "n1", "become_leader", term=2)
                trace.record(now, "n1", "step_down")
            """,
        },
    )
    project, errors = load_project(tmp_path, DEFAULT_CONFIG)
    assert errors == []
    source = generate_trace_registry(project, DEFAULT_CONFIG)
    (tmp_path / "repro/sim").mkdir(parents=True, exist_ok=True)
    (tmp_path / DEFAULT_CONFIG.trace_registry_modpath).write_text(source)
    report = run_repolint(tmp_path, rules=[TraceRegistryRule(DEFAULT_CONFIG)])
    assert report.findings == []
