"""The message-size model: the exact-type fast dispatch in
``_payload_bytes`` must size every payload exactly as the plain
``isinstance`` chain does, subclasses included."""

import enum
from collections import OrderedDict, namedtuple

import pytest

from repro.kernel.kernel import _payload_bytes


def isinstance_model(payload) -> int:
    """The size model as a single ``isinstance`` chain (the reference)."""
    if payload is None:
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, dict):
        return 16 + sum(isinstance_model(k) + isinstance_model(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple)):
        return 16 + sum(isinstance_model(v) for v in payload)
    return 64


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


Point = namedtuple("Point", "x y")


class Opaque:
    pass


PAYLOADS = [
    None,
    True,
    False,
    0,
    -7,
    2**70,
    1.5,
    Colour.RED,
    "",
    "hello",
    Name("alice"),
    b"bytes",
    bytearray(b"grow"),
    Point(1, "two"),
    OrderedDict(a=1),
    [1, "two", None, [3.0]],
    ("t", (1, 2), {"k": b"v"}),
    {"op": "reply", "body": {"rows": [("u1", "bio", Colour.RED)], "ok": True}},
    {Name("k"): [Point(bytearray(b"x"), None)]},
    Opaque(),
    [Opaque(), {"x": Opaque()}],
    {1, 2, 3},
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_fast_dispatch_matches_isinstance_model(payload):
    assert _payload_bytes(payload) == isinstance_model(payload)


def test_unknown_object_is_64_bytes():
    assert _payload_bytes(Opaque()) == 64
    assert _payload_bytes(frozenset()) == 64
