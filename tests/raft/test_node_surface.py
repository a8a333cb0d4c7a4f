"""What ``RaftNode`` does *not* know about: CPU accounting.

The paper samples CPU with ``docker stats`` — from outside the server.
Billing lives in ``repro.cluster.capacity`` and is installed between a
node and the fabric; nothing under ``repro/raft`` may mention it.
"""

import inspect
import io
import pathlib
import tokenize

import repro.raft
from repro.raft.node import RaftNode


def test_raftnode_takes_no_cost_model():
    params = inspect.signature(RaftNode.__init__).parameters
    assert "cost_model" not in params
    assert len(params) == 11 + 1  # the eleven arguments, and self


def test_no_billing_identifier_under_repro_raft():
    offenders = []
    for path in sorted(pathlib.Path(repro.raft.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME and (
                "cost" in tok.string.lower() or "charge" in tok.string.lower()
            ):
                offenders.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert offenders == []
