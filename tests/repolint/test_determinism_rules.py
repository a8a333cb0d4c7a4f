"""Rule family 1 (determinism): true positives and near-miss guards."""

from conftest import lint, rule_hits

from tools.repolint import DEFAULT_CONFIG
from tools.repolint.rules.determinism import (
    ForbiddenNondeterminismRule,
    LinkStreamRule,
    UnorderedIterationRule,
)

FORBIDDEN = [ForbiddenNondeterminismRule(DEFAULT_CONFIG)]
UNORDERED = [UnorderedIterationRule(DEFAULT_CONFIG)]
LINK_STREAM = [LinkStreamRule(DEFAULT_CONFIG)]


# -- determinism-forbidden-call ------------------------------------------- #


def test_wall_clock_in_sim_scope_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/sched.py": """\
            import time

            def stamp() -> float:
                return time.time()
            """
        },
        rules=FORBIDDEN,
    )
    (hit,) = rule_hits(report, "determinism-forbidden-call")
    assert hit.symbol == "time.time"
    assert hit.path == "repro/sim/sched.py"


def test_aliased_wall_clock_is_resolved_and_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/x.py": """\
            import time as t

            def stamp() -> float:
                return t.monotonic()
            """
        },
        rules=FORBIDDEN,
    )
    (hit,) = rule_hits(report, "determinism-forbidden-call")
    assert hit.symbol == "time.monotonic"


def test_from_import_entropy_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/net/x.py": """\
            from os import urandom

            def token() -> bytes:
                return urandom(8)
            """
        },
        rules=FORBIDDEN,
    )
    (hit,) = rule_hits(report, "determinism-forbidden-call")
    assert hit.symbol == "os.urandom"


def test_stdlib_random_import_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/fuzz/x.py": """\
            import random

            def roll() -> float:
                return random.random()
            """
        },
        rules=FORBIDDEN,
    )
    hits = rule_hits(report, "determinism-forbidden-call")
    assert any(h.symbol == "random" for h in hits)


def test_unseeded_default_rng_is_flagged_seeded_is_not(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/dynatune/x.py": """\
            import numpy as np

            def bad():
                return np.random.default_rng()

            def good(seed: int):
                return np.random.default_rng(seed)
            """
        },
        rules=FORBIDDEN,
    )
    hits = rule_hits(report, "determinism-forbidden-call")
    assert len(hits) == 1
    assert hits[0].symbol == "default_rng"


def test_wall_clock_outside_sim_scopes_is_not_flagged(tmp_path):
    # Analysis/plotting code measures real elapsed time legitimately.
    report = lint(
        tmp_path,
        {
            "repro/analysis/bench.py": """\
            import time

            def stamp() -> float:
                return time.time()
            """
        },
        rules=FORBIDDEN,
    )
    assert report.findings == []


def test_loop_now_is_not_mistaken_for_wall_clock(tmp_path):
    # Near miss: `self.loop.now` and a local helper *named* time().
    report = lint(
        tmp_path,
        {
            "repro/sim/x.py": """\
            def virtual_time(loop) -> float:
                return loop.now

            def time() -> float:
                return 0.0

            def use() -> float:
                return time()
            """
        },
        rules=FORBIDDEN,
    )
    assert report.findings == []


# -- determinism-unordered-iter ------------------------------------------- #


def test_set_iteration_feeding_schedule_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/x.py": """\
            def kick(loop, peers: set) -> None:
                for p in peers | {"extra"}:
                    pass
                for p in set(peers):
                    loop.schedule(1.0, p)
            """
        },
        rules=UNORDERED,
    )
    (hit,) = rule_hits(report, "determinism-unordered-iter")
    assert "schedule" in hit.message


def test_dict_items_feeding_send_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/x.py": """\
            def flush(network, pending: dict) -> None:
                for name, msg in pending.items():
                    network.send(name, msg)
            """
        },
        rules=UNORDERED,
    )
    (hit,) = rule_hits(report, "determinism-unordered-iter")
    assert "pending.items()" in hit.message


def test_sorted_wrapper_is_not_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/x.py": """\
            def flush(network, pending: dict) -> None:
                for name, msg in sorted(pending.items()):
                    network.send(name, msg)
            """
        },
        rules=UNORDERED,
    )
    assert report.findings == []


def test_iteration_without_sink_is_not_flagged(tmp_path):
    # Near miss: pure aggregation over a set is order-insensitive.
    report = lint(
        tmp_path,
        {
            "repro/raft/x.py": """\
            def tally(votes: dict) -> int:
                total = 0
                for v in votes.values():
                    total += v
                return total
            """
        },
        rules=UNORDERED,
    )
    assert report.findings == []


def test_self_attr_set_iteration_is_flagged_via_annotation(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/x.py": """\
            class Tracker:
                def __init__(self) -> None:
                    self.peers: set[str] = set()

                def ping(self, net) -> None:
                    for p in self.peers:
                        net.send(p, "ping")
            """
        },
        rules=UNORDERED,
    )
    (hit,) = rule_hits(report, "determinism-unordered-iter")
    assert "self.peers" in hit.message


def test_comprehension_argument_to_sink_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/sim/x.py": """\
            def emit(trace, now: float, peers: set) -> None:
                trace.record(now, "n", "k", order=[p for p in set(peers)])
            """
        },
        rules=UNORDERED,
    )
    (hit,) = rule_hits(report, "determinism-unordered-iter")
    assert "comprehension" in hit.message


def test_list_iteration_feeding_send_is_not_flagged(tmp_path):
    # Near miss: lists are ordered; only set/dict iteration is suspect.
    report = lint(
        tmp_path,
        {
            "repro/raft/x.py": """\
            def flush(network, pending: list) -> None:
                for msg in pending:
                    network.send("peer", msg)
            """
        },
        rules=UNORDERED,
    )
    assert report.findings == []


# -- determinism-link-stream ------------------------------------------------ #


def test_only_link_and_transmit_may_touch_a_links_raw_stream(tmp_path):
    # A hot link's raw generator sits ahead of the scalar position: a step
    # drawing from it (instead of ``link.rng``, which rewinds) forks the stream.
    report = lint(
        tmp_path,
        {
            "repro/net/link.py": """\
            class Link:
                def _sync(self) -> None:
                    self._rng.standard_normal(self._pos)

            def peek(link):
                return link._block
            """,
            "repro/net/network.py": """\
            class Network:
                def transmit(self, link) -> None:
                    z = link._block[link._pos]

                def add_link(self, link, old) -> None:
                    link._rng = old._rng
            """,
            "repro/scenarios/steps.py": """\
            class ClockModel:
                def read(self) -> float:
                    return self._rng.normal()  # its own field, not a link's

            def apply(rt) -> float:
                link = rt.network.link("a", "b")
                return link._rng.random() + link.rng.random()
            """,
        },
        rules=LINK_STREAM,
    )
    hits = rule_hits(report, "determinism-link-stream")
    assert sorted((h.path, h.symbol) for h in hits) == [
        ("repro/net/network.py", "_rng"),
        ("repro/net/network.py", "_rng"),
        ("repro/scenarios/steps.py", "_rng"),
    ]
    (planted,) = (h for h in hits if h.path == "repro/scenarios/steps.py")
    assert "link._rng" in planted.message and "link.rng" in planted.message
