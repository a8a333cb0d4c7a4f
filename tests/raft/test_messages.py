"""The client RPC payloads and KVCommand: slotted dataclasses with value
semantics (field-wise ``==``/``hash`` within one class, the dataclass
``repr``)."""

import pickle

import pytest

from repro.raft.messages import ClientReadRequest, ClientRequest, ClientResponse
from repro.raft.state_machine import KVCommand, kv_delete, kv_get, kv_put

PUT = kv_put("k", 1)

#: (class, args making one value, args making a different one, expected repr)
CASES = [
    (KVCommand, ("put", "k", 1), ("put", "k", 2), "KVCommand(op='put', key='k', value=1)"),
    (
        ClientRequest,
        (7, PUT),
        (8, PUT),
        "ClientRequest(request_id=7, command=KVCommand(op='put', key='k', value=1))",
    ),
    (
        ClientReadRequest,
        (7, PUT),
        (7, kv_get("k")),
        "ClientReadRequest(request_id=7, command=KVCommand(op='put', key='k', value=1))",
    ),
    (
        ClientResponse,
        (7, False, None, "n2"),
        (7, False, None, "n3"),
        "ClientResponse(request_id=7, ok=False, result=None, leader_hint='n2')",
    ),
]


@pytest.mark.parametrize("cls, args, other_args, text", CASES)
def test_value_semantics(cls, args, other_args, text):
    one, same, other = cls(*args), cls(*args), cls(*other_args)
    assert one == same and hash(one) == hash(same)
    assert one != other
    assert one != args and (one == args) is False  # never equal to a bare tuple
    assert repr(one) == text
    assert len({one, same, other}) == 2
    assert pickle.loads(pickle.dumps(one)) == one


@pytest.mark.parametrize("cls, args, other_args, text", CASES)
def test_slotted_without_dict(cls, args, other_args, text):
    one = cls(*args)
    assert not hasattr(one, "__dict__")
    with pytest.raises(AttributeError):
        one.extra = 1


def test_same_fields_different_class_are_unequal():
    assert ClientRequest(7, PUT) != ClientReadRequest(7, PUT)


def test_keyword_construction_and_defaults():
    resp = ClientResponse(request_id=3, ok=True)
    assert (resp.result, resp.leader_hint) == (None, None)
    assert ClientRequest(request_id=1, command=PUT) == ClientRequest(1, PUT)
    assert KVCommand(op="get", key="k") == kv_get("k") == KVCommand("get", "k", None)
    assert kv_delete("k") == KVCommand("delete", "k")
