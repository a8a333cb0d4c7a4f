"""Rule family 5 (protocol-state hygiene): designated mutators only."""

from conftest import lint, rule_hits

from tools.repolint import DEFAULT_CONFIG
from tools.repolint.rules.state import ProtectedStateRule

RULES = [ProtectedStateRule(DEFAULT_CONFIG)]


def test_write_inside_designated_mutator_passes(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def __init__(self) -> None:
                    self.current_term = 0
                    self.voted_for = None

                def _become_follower(self, term: int) -> None:
                    self.current_term = term
                    self.voted_for = None
            """
        },
        rules=RULES,
    )
    assert report.findings == []


def test_write_outside_mutators_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _on_heartbeat(self, m) -> None:
                    self.current_term = m.term
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "state-protected-write")
    assert hit.symbol == "current_term"
    assert "_on_heartbeat" in hit.message


def test_augmented_write_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/fuzz/inject.py": """\
            def corrupt(node) -> None:
                node.current_term += 1000
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "state-protected-write")
    assert hit.symbol == "current_term"


def test_subscript_write_through_attribute_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/fuzz/inject.py": """\
            def corrupt(node, entry) -> None:
                node._configs._changes[-1] = entry
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "state-protected-write")
    assert hit.symbol == "_changes"


def test_quorum_has_one_builder(tmp_path):
    # "Who counts" is decided in _refresh_membership alone; a second
    # writer — even another RaftNode method — is flagged.
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _refresh_membership(self) -> None:
                    self._quorum = Quorum.of(self._configs.current, self.name)

                def _become_leader(self) -> None:
                    self._quorum = Quorum.of(self.membership, self.name)
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "state-protected-write")
    assert hit.symbol == "_quorum"
    assert "_become_leader" in hit.message


def test_cross_module_write_is_flagged(tmp_path):
    # The rule is not confined to node.py: any module reaching into a
    # node's protected state is flagged.
    report = lint(
        tmp_path,
        {
            "repro/cluster/ops.py": """\
            def hammer(node) -> None:
                node.voted_for = "n1"
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "state-protected-write")
    assert hit.symbol == "voted_for"


def test_unprotected_attribute_is_not_flagged(tmp_path):
    # Near miss: similarly named but unlisted attributes stay free.
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _on_heartbeat(self, m) -> None:
                    self.current_leader = m.leader
                    self.commit_index = m.leader_commit
            """
        },
        rules=RULES,
    )
    assert report.findings == []


def test_suppression_comment_permits_deliberate_corruption(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/fuzz/inject.py": """\
            def corrupt(node) -> None:
                node.current_term += 1000  # repolint: disable=state-protected-write
            """
        },
        rules=RULES,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
