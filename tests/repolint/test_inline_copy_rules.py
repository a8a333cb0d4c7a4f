"""Rule family 10 (inline-copy-pinned): a hand-synced copy names its test."""

import dataclasses

from conftest import REPO_ROOT, lint, rule_hits, write_tree

from tools.repolint import DEFAULT_CONFIG, run_repolint
from tools.repolint.rules.inline_copies import InlineCopyPinnedRule

RULES = [InlineCopyPinnedRule(DEFAULT_CONFIG)]

TESTS = {
    "tests/sim/test_loop.py": """\
    def test_schedule_matches_push():
        pass

    class TestTwins:
        def test_method(self):
            pass

    def helper_not_a_test():
        pass
    """,
}


def _hits(tmp_path, source):
    write_tree(tmp_path, TESTS)
    report = lint(tmp_path / "src", {"repro/sim/loop.py": source}, rules=RULES)
    return rule_hits(report, "inline-copy-pinned")


def test_copy_naming_an_existing_test_is_clean(tmp_path):
    assert (
        _hits(
            tmp_path,
            """\
            def schedule(loop):
                # Inline copy of _push_event: a call costs a frame.  Pinned by
                # tests/sim/test_loop.py::test_schedule_matches_push
                return loop

            def push(loop):
                x = 1  # Inlined of _push, see tests/sim/test_loop.py::TestTwins
                return loop
            """,
        )
        == []
    )


def test_unnamed_copy_is_a_finding(tmp_path):
    (hit,) = _hits(
        tmp_path,
        """\
        def schedule(loop):
            # Inline of _push_event (keep in sync): a call costs a frame.
            return loop
        """,
    )
    assert hit.path == "repro/sim/loop.py" and hit.line == 2
    assert "names no tests/<file>.py::<test>" in hit.message


def test_keep_in_sync_alone_is_a_copy_marker(tmp_path):
    (hit,) = _hits(tmp_path, "x = 1  # Keep in sync with y.\n")
    assert "names no" in hit.message


def test_dangling_test_reference_is_a_finding(tmp_path):
    hits = _hits(
        tmp_path,
        """\
        # Inline copy of a: tests/sim/test_loop.py::test_renamed_away
        a = 1

        # Inline copy of b: tests/sim/test_gone.py::test_schedule_matches_push
        b = 2

        # Inline copy of c: only tests/sim/test_loop.py::helper_not_a_test
        c = 3
        """,
    )
    assert [(h.line, h.symbol) for h in hits] == [
        (1, "tests/sim/test_loop.py::test_renamed_away"),
        (4, "tests/sim/test_gone.py::test_schedule_matches_push"),
        (7, ""),  # a helper is no test: nothing is named at all
    ]
    assert "does not exist" in hits[0].message


def test_unmarked_comments_and_strings_are_ignored(tmp_path):
    assert (
        _hits(
            tmp_path,
            '''\
            # The follower's hottest operation; nothing inlined here.
            DOC = "Inline copy of x (keep in sync)"
            ''',
        )
        == []
    )


def test_real_tree_copies_are_pinned_only_thanks_to_the_tests():
    # Clean as shipped; blind the rule to the user roots and every pinned
    # copy's reference dangles — i.e. the tests directory is really read.
    assert run_repolint(REPO_ROOT / "src", rules=RULES).findings == []
    blind = dataclasses.replace(DEFAULT_CONFIG, knob_user_roots=())
    report = run_repolint(REPO_ROOT / "src", rules=[InlineCopyPinnedRule(blind)])
    assert {h.path for h in report.findings} == {
        "repro/sim/loop.py",
        "repro/net/network.py",
        "repro/raft/node.py",
    }
    assert all("does not exist" in h.message for h in report.findings)
