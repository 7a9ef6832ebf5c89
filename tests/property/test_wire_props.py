"""Property tests for the binary datagram codec (``repro.net.wire``).

Two contracts:

* **hostile input** — ``decode_frame`` on any bytes whatever, and on
  valid frames with bits flipped, tails cut and junk spliced in, either
  returns a well-formed ``(src, dst, frame, type_name)`` or raises
  ``ConfigurationError``. Nothing else may escape: the substrate drops
  on that one exception, and anything else would kill the site;
* **round trip** — an instance of *every* class in the message registry,
  built from its field annotations, survives the wire bare, inside a
  ``Segment`` and inside a ``Bundle``; so do the edge values (``ack=-1``,
  the free-lock sentinel), and header fields out of range are refused at
  encode time with ``ConfigurationError``.

Derandomized: tier-1 runs the same examples every time.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Bundle, Priority
from repro.errors import ConfigurationError
from repro.net.wire import CLASS_TABLE, WIRE_VERSION, decode_frame, encode_frame
from repro.obs.export import _message_registry
from repro.sim.transport import AckSegment, Segment

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

I64 = st.integers(-(1 << 63), (1 << 63) - 1)
U16 = st.integers(0, (1 << 16) - 1)
U32 = st.integers(0, (1 << 32) - 1)
I32 = st.integers(-(1 << 31), (1 << 31) - 1)
PRIORITIES = st.builds(Priority, I64, I64) | st.just(Priority.maximum())
SCALARS = (
    st.none() | st.booleans() | I64 | st.floats(allow_nan=False) | st.text(max_size=8)
)
VALUES = SCALARS | st.lists(SCALARS, max_size=3).map(tuple)

#: Field annotation (as written in the message modules) -> strategy. A new
#: annotation fails here, loudly, until someone says how to generate it.
BY_ANNOTATION = {
    "int": I64,
    "SiteId": I64,
    "bool": st.booleans(),
    "Priority": PRIORITIES,
    "Optional[SiteId]": st.none() | I64,
    "Optional[Priority]": st.none() | PRIORITIES,
    "Tuple[int, ...]": st.lists(I64, max_size=4).map(tuple),
    "Tuple[SiteId, ...]": st.lists(I64, max_size=4).map(tuple),
    "Tuple[str, ...]": st.lists(st.text(max_size=6), max_size=4).map(tuple),
    "Version": st.tuples(I64, I64),
    "Any": VALUES,
}

PLAIN_CLASSES = [cls for cls in _message_registry().values() if cls is not Bundle]


def instances(cls):
    """Instances of message class ``cls``, field by field from its annotations."""
    if cls is Bundle:
        parts = st.lists(MESSAGES, min_size=2, max_size=3)
        return parts.map(lambda chosen: Bundle(parts=tuple(chosen)))
    return st.builds(
        cls, *[BY_ANNOTATION[field.type] for field in dataclasses.fields(cls)]
    )


MESSAGES = st.one_of([instances(cls) for cls in PLAIN_CLASSES])
FRAMES = st.one_of(
    MESSAGES,
    st.builds(Segment, U32, U32, I32, U32, MESSAGES, st.text(max_size=12)),
    st.builds(AckSegment, I32, U32),
)


def assert_same_segment(decoded, segment):
    assert type(decoded) is Segment
    for name in Segment.__slots__:
        assert getattr(decoded, name) == getattr(segment, name), name


# -- hostile input -------------------------------------------------------------


def assert_decodes_or_is_dropped(data: bytes) -> None:
    try:
        src, dst, frame, type_name = decode_frame(data)
    except ConfigurationError:
        return
    assert type(src) is int and 0 <= src < 1 << 16
    assert type(dst) is int and 0 <= dst < 1 << 16
    assert type(type_name) is str
    assert type(frame) in (Segment, AckSegment) or frame is None or type(frame) in (
        bool, int, float, str, tuple, Priority, *[cls for cls, _ in CLASS_TABLE]
    )


@given(data=st.binary(max_size=96))
@SETTINGS
def test_arbitrary_bytes_decode_or_raise_configuration_error(data):
    assert_decodes_or_is_dropped(data)


@given(kind=st.integers(0, 3), rest=st.binary(max_size=96))
@SETTINGS
def test_arbitrary_bytes_behind_a_valid_version_and_kind(kind, rest):
    assert_decodes_or_is_dropped(bytes([WIRE_VERSION, kind]) + rest)


@given(frame=FRAMES, where=st.integers(0, 1 << 16), bit=st.integers(0, 7))
@SETTINGS
def test_bit_flipped_frames_decode_or_raise_configuration_error(frame, where, bit):
    data = bytearray(encode_frame(1, 2, frame, "x"))
    data[where % len(data)] ^= 1 << bit
    assert_decodes_or_is_dropped(bytes(data))


@given(frame=FRAMES, where=st.integers(0, 1 << 16), junk=st.binary(max_size=8))
@SETTINGS
def test_truncated_and_spliced_frames_decode_or_raise_configuration_error(
    frame, where, junk
):
    data = encode_frame(1, 2, frame, "x")
    cut = where % len(data)
    assert_decodes_or_is_dropped(data[:cut])
    assert_decodes_or_is_dropped(data[:cut] + junk + data[cut:])
    assert_decodes_or_is_dropped(data + junk)


# -- round trip ----------------------------------------------------------------


@pytest.mark.parametrize(
    "cls", list(_message_registry().values()), ids=lambda c: c.__name__
)
@given(data=st.data(), src=U16, dst=U16)
@SETTINGS
def test_every_registry_class_round_trips(cls, data, src, dst):
    message = data.draw(instances(cls))
    name = message.type_name
    bare = decode_frame(encode_frame(src, dst, message, name))
    assert bare == (src, dst, message, name)

    segment = Segment(*data.draw(st.tuples(U32, U32, I32, U32)), message, name)
    *header, decoded, got_name = decode_frame(encode_frame(src, dst, segment, "-"))
    assert (header, got_name) == ([src, dst], name)
    assert_same_segment(decoded, segment)

    bundle = Bundle(parts=(message, data.draw(MESSAGES)))
    assert decode_frame(encode_frame(src, dst, bundle, name))[2] == bundle


@given(ack=I32, epoch=U32, src=U16, dst=U16)
@SETTINGS
def test_ack_segments_round_trip(ack, epoch, src, dst):
    got_src, got_dst, decoded, name = decode_frame(
        encode_frame(src, dst, AckSegment(ack, epoch), "ack")
    )
    assert (got_src, got_dst, name, type(decoded)) == (src, dst, "ack", AckSegment)
    assert (decoded.ack, decoded.epoch) == (ack, epoch)


def test_edge_values_round_trip():
    _, _, ack, _ = decode_frame(encode_frame(0, 1, AckSegment(-1, 0), "ack"))
    assert (ack.ack, ack.epoch) == (-1, 0)
    registry = _message_registry()
    sentinel = Priority(*Priority.MAX_SENTINEL)
    release = registry["Release"](sentinel, Priority.maximum(), 0)
    segment = Segment(0, 0, -1, 0, release, "release")
    decoded = decode_frame(encode_frame(0, 1, segment, "release"))[2]
    assert_same_segment(decoded, segment)
    assert decoded.payload.releaser.is_max and decoded.payload.transferred_to.is_max


OUT_OF_U16 = st.integers(max_value=-1) | st.integers(min_value=1 << 16)
OUT_OF_U32 = st.integers(max_value=-1) | st.integers(min_value=1 << 32)
OUT_OF_I32 = st.integers(max_value=-(1 << 31) - 1) | st.integers(min_value=1 << 31)


@given(message=MESSAGES, bad=OUT_OF_U16, ok=U16)
@SETTINGS
def test_out_of_range_site_ids_are_refused_at_encode(message, bad, ok):
    for src, dst in ((bad, ok), (ok, bad)):
        for frame in (message, Segment(0, 0, -1, 0, message, "x"), AckSegment(0, 0)):
            with pytest.raises(ConfigurationError):
                encode_frame(src, dst, frame, "x")


@given(message=MESSAGES, bad=OUT_OF_U32, bad_ack=OUT_OF_I32)
@SETTINGS
def test_out_of_range_channel_positions_are_refused_at_encode(message, bad, bad_ack):
    positions = ((bad, 0, 0, 0), (0, bad, 0, 0), (0, 0, bad_ack, 0), (0, 0, 0, bad))
    for position in positions:
        with pytest.raises(ConfigurationError):
            encode_frame(0, 1, Segment(*position, message, "x"), "x")
    for ack, epoch in ((bad_ack, 0), (0, bad)):
        with pytest.raises(ConfigurationError):
            encode_frame(0, 1, AckSegment(ack, epoch), "ack")
