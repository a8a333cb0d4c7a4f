"""Rule family 6 (durable-write hygiene): storage-backed mutators only."""

from conftest import lint, rule_hits

from tools.repolint import DEFAULT_CONFIG
from tools.repolint.rules.durability import DurableWriteRule

RULES = [DurableWriteRule(DEFAULT_CONFIG)]


def test_mutation_inside_designated_methods_passes(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def __init__(self) -> None:
                    self.snapshot = None

                def _on_client_request(self, m) -> None:
                    self.log.append_new(self.current_term, m.command)

                def _on_append_entries(self, m) -> None:
                    self.log.try_append(m.prev_index, m.prev_term, m.entries)

                def _maybe_compact(self) -> None:
                    self.snapshot = object()
                    self.log.compact(10)
            """
        },
        rules=RULES,
    )
    assert report.findings == []


def test_append_outside_mutators_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _on_heartbeat(self, m) -> None:
                    self.log.append_new(self.current_term, None)
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "durable-write-hygiene")
    assert hit.symbol == "append_new"
    assert "_on_heartbeat" in hit.message


def test_aliased_mutation_is_flagged(tmp_path):
    # The hot-path alias form must not be an escape hatch.
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _sneaky(self) -> None:
                    log = self.log
                    log.compact(5)
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "durable-write-hygiene")
    assert hit.symbol == "compact"


def test_cross_module_mutation_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/cluster/ops.py": """\
            def hammer(node) -> None:
                node.log.install_snapshot(10, 2)
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "durable-write-hygiene")
    assert hit.symbol == "install_snapshot"


def test_snapshot_write_outside_writers_is_flagged(tmp_path):
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _on_heartbeat(self, m) -> None:
                    self.snapshot = m.snapshot
            """
        },
        rules=RULES,
    )
    (hit,) = rule_hits(report, "durable-write-hygiene")
    assert hit.symbol == "snapshot"


def test_reads_and_other_receivers_are_not_flagged(tmp_path):
    # Near misses stay free: reading log state, mutators on non-log
    # receivers, and calls to a state machine's snapshot() method.
    report = lint(
        tmp_path,
        {
            "repro/raft/node.py": """\
            class RaftNode:
                def _on_heartbeat(self, m) -> None:
                    last = self.log.last_index
                    term = self.log.term_at(last)
                    data = self.state_machine.snapshot()
                    self.buffer.compact(5)
                    snap = self.snapshot
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
                node.log.append_new(99, None)  # repolint: disable=durable-write-hygiene
            """
        },
        rules=RULES,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_only_the_encoder_may_write_an_entrys_cached_record(tmp_path):
    # Every replica's WAL shares the record: a second writer (here a fault
    # injector "fixing up" a record in place) would corrupt all of them.
    report = lint(
        tmp_path,
        {
            "repro/storage/simdisk.py": """\
            def _encode_entry(entry, rec=None):
                object.__setattr__(entry, "_wal", rec or object())
                return entry

            class SimDiskStorage:
                def wal_append(self, entry) -> None:
                    if entry._wal is None:
                        _encode_entry(entry)

                def _flip_bit(self, entry, bad) -> None:
                    object.__setattr__(entry, "_wal", bad)
            """,
            "repro/fuzz/inject.py": """\
            def scrub(entry) -> None:
                entry._wal = None
                setattr(entry, "_wal", None)
                setattr(entry, "term", 3)  # some other attribute: free
            """,
        },
        rules=RULES,
    )
    hits = rule_hits(report, "durable-write-hygiene")
    assert sorted((h.path, h.symbol) for h in hits) == [
        ("repro/fuzz/inject.py", "_wal"),
        ("repro/fuzz/inject.py", "_wal"),
        ("repro/storage/simdisk.py", "_wal"),
    ]
    hits.sort(key=lambda h: h.path)
    assert "_flip_bit" in hits[-1].message and "_encode_entry" in hits[-1].message
