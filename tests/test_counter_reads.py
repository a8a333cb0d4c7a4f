"""Every node and link counter is read by the program that bumps it.

A counter that nothing reads is a write on a hot path that records
nothing.  This walks ``src/`` and ``benchmarks/`` with :mod:`ast` and
fails on any :class:`NodeMetrics` or :class:`LinkStats` field that no
module other than its own reads.  A read is an attribute in ``Load``
context (``+=`` is a store) or a string literal naming the field, which
is how the benchmark's ``_NODE_COUNTERS`` reaches its counters through
``getattr``.  The exemptions are test seams: counters of events that
leave no other record, each listed with the test that reads it (directly
or through a helper in its file).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import sys
from pathlib import Path

import pytest

from repro.net.stats import LinkStats
from repro.raft.metrics import NodeMetrics

REPO = Path(__file__).resolve().parent.parent
READER_ROOTS = ("src", "benchmarks")

#: ``Record.field`` -> the test that reads it.
SEAMS = {
    "NodeMetrics.heartbeats_received": (
        "tests/dynatune/test_integration.py::test_each_follower_is_beaten_at_its_own_tuned_h"
    ),
    "NodeMetrics.votes_rejected": (
        "tests/raft/test_prevote.py::test_lease_rejects_votes_while_leader_alive"
    ),
    "NodeMetrics.read_probes_sent": (
        "tests/raft/test_serving_fastpath.py::test_readindex_serves_without_log_entry"
    ),
    "NodeMetrics.reads_failed": (
        "tests/raft/test_serving_fastpath.py::test_reads_flushed_on_step_down"
    ),
    "LinkStats.dropped": (
        "tests/net/test_network.py::test_tcp_send_path_matches_transport_reference"
    ),
    "LinkStats.duplicated": (
        "tests/net/test_network.py::test_udp_send_path_matches_transport_reference"
    ),
    "LinkStats.retransmits": (
        "tests/net/test_network.py::test_tcp_send_path_matches_transport_reference"
    ),
}

RECORDS = (NodeMetrics, LinkStats)


@functools.cache
def _names_read_in() -> dict[Path, frozenset[str]]:
    """Per module under the reader roots: every loaded attribute name and
    every string literal."""
    reads = {}
    for root in READER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            reads[path.resolve()] = frozenset(names)
    return reads


def _fields(record: type) -> list[str]:
    return [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_every_counter_is_read_outside_its_module(record):
    home = Path(sys.modules[record.__module__].__file__).resolve()
    read = set().union(*(n for p, n in _names_read_in().items() if p != home))
    unread = [
        name
        for name in _fields(record)
        if name not in read and f"{record.__name__}.{name}" not in SEAMS
    ]
    assert unread == [], f"{record.__name__} fields nothing reads: {unread}"


@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_each_seam_is_a_field_its_test_file_reads(seam):
    record, name = seam.split(".")
    assert name in _fields({r.__name__: r for r in RECORDS}[record])
    path, test = SEAMS[seam].split("::")
    source = (REPO / path).read_text()
    assert f"\ndef {test}(" in source, f"{SEAMS[seam]} not found"
    assert f".{name}" in source, f"{path} does not read {name}"
