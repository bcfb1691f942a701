"""Golden wire/v1 documents: the exact bytes one encoder ships.

``tests/test_cluster_wire.py`` proves the codec round-trips; this file
pins what actually crosses the shard boundary — fingerprints, full
bodies on first send, and the id-only form of a repeat — so a change to
how labels are fingerprinted or memoized cannot silently change the
format two shards of different builds would exchange.
"""

from __future__ import annotations

import json

from repro.cluster.wire import WireDecoder, WireEncoder
from repro.core.chunks import ChunkedLabel
from repro.core.labels import Label
from repro.core.levels import L0, L1, L3, STAR

try:
    from repro.cluster.wire import LabelTable
except ImportError:  # releases before 2.0 kept the table in repro.core.interning
    from repro.core.interning import InternTable as LabelTable

FP_STAR_HEAVY = 4345132095540847250
FP_TOP = 16295938515333252330
FP_DR = 7760263072627703071
FP_EMPTY_STAR = 3246705950370657501
FP_EMPTY_ONE = 18232024504446223411

STAR_HEAVY_ENTRIES = [[7, 3], [9, 0]] + [[h, 4] for h in range(100, 140)]


def _labels():
    star_heavy = Label({**{h: STAR for h in range(100, 140)}, 7: L3, 9: L0}, L1)
    return {
        "star_heavy": star_heavy,
        "top": Label({}, L3),
        "empty_one": Label({}, L1),
        "empty_star": Label({}, STAR),
        "dr": Label({7: L3}, STAR),
    }


def _encode_two():
    labels = {name: ChunkedLabel.from_label(label) for name, label in _labels().items()}
    encoder = WireEncoder(LabelTable(), src=3)
    first = encoder.encode(
        dst=2,
        port=0x4242,
        payload={"k": b"v\x00", "n": [1, None, "x"]},
        es=labels["star_heavy"],
        ds=labels["top"],
        v=labels["top"],
        dr=labels["dr"],
        sender="courier",
    )
    # A fresh object with the same value as the first ES: the repeat is
    # recognised by content, not by identity.
    repeat_es = ChunkedLabel.from_label(_labels()["star_heavy"])
    second = encoder.encode(
        dst=2,
        port=0x4242,
        payload=None,
        es=repeat_es,
        ds=labels["top"],
        v=labels["empty_one"],
        dr=labels["empty_star"],
        sender="courier",
    )
    return first, second


EXPECTED_FIRST = {
    "schema": "wire/v1",
    "seq": 1,
    "src": 3,
    "dst": 2,
    "port": 0x4242,
    "sender": "courier",
    "payload": {"k": {"__wire_bytes__": "v\x00"}, "n": [1, None, "x"]},
    "labels": {
        "es": {"fp": FP_STAR_HEAVY, "default": 1, "entries": STAR_HEAVY_ENTRIES},
        "ds": {"fp": FP_TOP, "default": 3, "entries": []},
        # Same value as DS, already shipped to dst 2 one field earlier.
        "v": {"fp": FP_TOP},
        "dr": {"fp": FP_DR, "default": 4, "entries": [[7, 3]]},
    },
}

EXPECTED_SECOND = {
    "schema": "wire/v1",
    "seq": 2,
    "src": 3,
    "dst": 2,
    "port": 0x4242,
    "sender": "courier",
    "payload": None,
    "labels": {
        "es": {"fp": FP_STAR_HEAVY},
        "ds": {"fp": FP_TOP},
        "v": {"fp": FP_EMPTY_ONE, "default": 1, "entries": []},
        "dr": {"fp": FP_EMPTY_STAR, "default": 4, "entries": []},
    },
}


def test_documents_are_exactly_the_golden_ones():
    first, second = _encode_two()
    assert first == EXPECTED_FIRST
    assert second == EXPECTED_SECOND


def test_serialized_bytes_are_stable():
    first, second = _encode_two()
    expected = [EXPECTED_FIRST, EXPECTED_SECOND]
    assert [json.dumps(doc, sort_keys=True) for doc in (first, second)] == [
        json.dumps(doc, sort_keys=True) for doc in expected
    ]
    # Spot-check the literal encoding of the small labels: ⋆ is wire code 4.
    assert '"dr": {"default": 4, "entries": [[7, 3]], "fp": 7760263072627703071}' in (
        json.dumps(first, sort_keys=True)
    )


def test_golden_documents_decode_on_a_fresh_table():
    decoder = WireDecoder(LabelTable())
    labels = _labels()
    first = decoder.decode(EXPECTED_FIRST)
    second = decoder.decode(EXPECTED_SECOND)
    assert first.es.to_label() == labels["star_heavy"]
    assert first.v.to_label() == labels["top"]
    assert first.dr.to_label() == labels["dr"]
    assert second.es is first.es  # id-only resolves to the shipped body
    assert second.ds is first.ds
    assert second.v.to_label() == labels["empty_one"]
    assert second.dr.to_label() == labels["empty_star"]
