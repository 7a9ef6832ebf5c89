"""Datagram wire-format tests: the UDP codec round-trips every frame
shape the substrate can put on a socket, and strictly rejects garbage
(a malformed datagram must be droppable, never able to kill a site)."""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.common import Bundle, Priority
from repro.core.messages import Release, Reply, Request, Transfer
from repro.errors import ConfigurationError
from repro.net.config import NetRunConfig
from repro.net.substrate import NetSubstrate
from repro.net.wire import (
    CLASS_TABLE,
    MAX_DATAGRAM,
    WIRE_VERSION,
    decode_frame,
    encode_frame,
)
from repro.sim.node import Node
from repro.sim.transport import AckSegment, Segment


def roundtrip(frame, type_name="x", src=1, dst=2):
    return decode_frame(encode_frame(src, dst, frame, type_name))


def test_bare_message_roundtrip():
    msg = Request(Priority(3, 1))
    src, dst, frame, type_name = roundtrip(msg, "request", src=1, dst=4)
    assert (src, dst, type_name) == (1, 4, "request")
    assert frame == msg


def test_segment_roundtrip_preserves_channel_position():
    payload = Reply(arbiter=3, grantee=Priority(7, 2))
    segment = Segment(
        seq=5, epoch=2, ack=3, ack_epoch=1, payload=payload, type_name="reply"
    )
    _, _, decoded, type_name = roundtrip(segment, "reply")
    assert isinstance(decoded, Segment)
    assert (decoded.seq, decoded.epoch, decoded.ack, decoded.ack_epoch) == (
        5,
        2,
        3,
        1,
    )
    assert decoded.payload == payload
    assert type_name == "reply"


def test_ack_segment_roundtrip():
    _, _, decoded, type_name = roundtrip(AckSegment(9, 4), "ack")
    assert isinstance(decoded, AckSegment)
    assert (decoded.ack, decoded.epoch) == (9, 4)
    assert type_name == "ack"


def test_bundle_payload_roundtrips_inside_a_segment():
    bundle = Bundle(
        parts=(
            Transfer(
                beneficiary=Priority(2, 1), arbiter=3, holder=Priority(1, 0)
            ),
            Release(releaser=Priority(1, 0)),
        )
    )
    segment = Segment(
        seq=0,
        epoch=0,
        ack=-1,
        ack_epoch=0,
        payload=bundle,
        type_name="transfer+release",
    )
    _, _, decoded, _ = roundtrip(segment, "transfer+release")
    assert decoded.payload == bundle


_REQUEST = encode_frame(0, 1, Request(Priority(1, 0)), "request")
_REQUEST_BODY = len(_REQUEST) - 20  # a 3-byte message head and one 17-byte Priority
_CLASS_INDEX = {cls: index for index, (cls, _) in enumerate(CLASS_TABLE)}


def _bare(body: bytes) -> bytes:
    """A well-formed bare-frame header and type name, then ``body``."""
    return struct.pack("!BBHH", WIRE_VERSION, 0, 0, 1) + b"\x05\x00\x01x" + body


@pytest.mark.parametrize(
    "data",
    [
        # What a version-1 site would send: JSON text, now garbage.
        b"\xff\xfe not json",
        b"[]",
        b'{"v": 99, "s": 0, "r": 1}',
        b'{"v": 1, "s": 0}',
        b'{"v": 1, "s": 0, "r": 1, "ack": "bad"}',
        b'{"v": 1, "s": 0, "r": 1, "tn": "x", "d": null, "seg": [1]}',
        # One case per rejection rule of the version-2 layout.
        pytest.param(b"", id="empty"),
        pytest.param(bytes([WIRE_VERSION + 1]) + _REQUEST[1:], id="unknown-version"),
        pytest.param(bytes([WIRE_VERSION, 3]) + _REQUEST[2:], id="unknown-kind"),
        pytest.param(_bare(b"\x09"), id="unknown-tag"),
        pytest.param(_bare(bytes([8, len(CLASS_TABLE), 0])), id="unknown-class-index"),
        pytest.param(
            _bare(bytes([8, _CLASS_INDEX[Request], 2]) + b"\x00\x00"), id="wrong-arity"
        ),
        pytest.param(
            _bare(bytes([8, _CLASS_INDEX[Bundle], 1]) + b"\x07\x00\x00"),
            id="constructor-refuses",  # a bundle of no parts
        ),
        pytest.param(_REQUEST[:-1], id="truncated-int"),
        pytest.param(_REQUEST[:_REQUEST_BODY], id="truncated-before-payload"),
        pytest.param(_REQUEST[:3], id="truncated-header"),
        pytest.param(_bare(b"\x05\x00\x09abc"), id="string-past-the-end"),
        pytest.param(_bare(b"\x05\x00\x01\xff"), id="string-not-utf8"),
        pytest.param(_REQUEST + b"\x00", id="trailing-bytes"),
        pytest.param(
            encode_frame(0, 1, AckSegment(3, 0), "ack") + b"\x00", id="ack-trailing"
        ),
        pytest.param(
            struct.pack("!BBHH", WIRE_VERSION, 0, 0, 1) + b"\x03" + bytes(8) + b"\x00",
            id="type-name-not-a-string",
        ),
        pytest.param(_bare(b"\x07\x00\x01" * 15_000), id="nesting-too-deep"),
    ],
)
def test_malformed_datagrams_raise_configuration_error(data):
    with pytest.raises(ConfigurationError):
        decode_frame(data)


@pytest.mark.parametrize(
    "src, dst, frame",
    [
        (-1, 1, Request(Priority(1, 0))),
        (0, 1 << 16, Request(Priority(1, 0))),
        (0, 1, Segment(1 << 32, 0, 0, 0, Request(Priority(1, 0)), "request")),
        (0, 1, Segment(0, -1, 0, 0, Request(Priority(1, 0)), "request")),
        (0, 1, AckSegment(-2 - (1 << 31), 0)),
        (0, 1, Request(Priority(1 << 63, 0))),
        (0, 1, Request(object())),  # a value with no wire encoding
        (0, 1, object()),
    ],
)
def test_unsendable_frames_raise_configuration_error_not_struct_error(src, dst, frame):
    with pytest.raises(ConfigurationError):
        encode_frame(src, dst, frame, "request")


def test_oversized_frame_is_rejected_at_encode_time():
    huge = Request(Priority(0, 0))
    # Simulate a pathological payload via an enormous type name.
    with pytest.raises(ConfigurationError):
        encode_frame(0, 1, huge, "x" * (MAX_DATAGRAM + 1))


def test_wire_version_is_stamped_on_every_datagram():
    payload = Request(Priority(1, 0))
    for frame in (payload, Segment(0, 0, -1, 0, payload, "request"), AckSegment(0, 0)):
        assert encode_frame(0, 1, frame, "request")[0] == WIRE_VERSION == 2


def test_class_table_is_pinned_to_the_wire_version():
    """The class index and the field order are the layout. If this digest
    moves, a message class or field was added, renamed or reordered:
    bump ``WIRE_VERSION`` and record the new digest beside it here."""
    table = ";".join(
        f"{index}={cls.__name__}({','.join(names)})"
        for index, (cls, names) in enumerate(CLASS_TABLE)
    )
    digest = hashlib.sha256(table.encode()).hexdigest()[:16]
    assert (WIRE_VERSION, digest) == (2, "ce2233db38df692e")


def test_version_1_json_datagram_is_counted_and_dropped():
    class Sink(Node):
        def on_message(self, src, message):
            delivered.append(message)

    delivered = []
    substrate = NetSubstrate(1, NetRunConfig(n_sites=2))
    substrate.add_node(Sink(1))
    v1 = (
        b'{"v":1,"s":0,"r":1,"tn":"request",'
        b'"d":{"$m":"Request","f":{"priority":{"$p":[1,0]}}}}'
    )
    substrate.datagram_received(v1)
    assert (substrate.stats.decode_errors, delivered) == (1, [])
    substrate.datagram_received(encode_frame(0, 1, Request(Priority(1, 0)), "request"))
    assert (substrate.stats.decode_errors, delivered) == (1, [Request(Priority(1, 0))])
