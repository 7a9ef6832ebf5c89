"""Datagram wire format for the UDP backend: binary, version 2.

One datagram is one frame: a protocol message (raw mode), a reliable
:class:`~repro.sim.transport.Segment` wrapping one, or a pure
:class:`~repro.sim.transport.AckSegment`. Integers are big-endian.

Header by byte offset: ``0`` version; ``1`` kind (0 bare, 1 segment, 2
ack); ``2-3`` src; ``4-5`` dst (unsigned). An ack goes on ``6-9`` ack
(signed: -1 is "nothing yet"), ``10-13`` epoch, and ends. A segment goes
on ``6-9`` seq, ``10-13`` epoch, ``14-17`` ack (signed), ``18-21``
ack_epoch. A bare frame and a segment then carry two tagged values: the
``type_name`` (a str) and the payload.

A tagged value is a tag byte and an operand: ``0`` None; ``1`` False;
``2`` True; ``3`` int, signed 64-bit; ``4`` float, IEEE double; ``5``
str, 16-bit length, UTF-8; ``6`` :class:`~repro.common.Priority`, two
signed 64-bit; ``7`` tuple (or list), 16-bit count, the items; ``8``
message: class index byte (into :data:`CLASS_TABLE`), field count byte,
the fields in dataclass order. A class or field added, renamed or moved
changes the layout: bump ``WIRE_VERSION`` (a test pins the table).

The decoder is strict: unknown version, kind, tag or class index, wrong
field count, truncation and trailing bytes all raise
:class:`~repro.errors.ConfigurationError`, which the receiving substrate
counts and drops (a malformed datagram must not kill a site). Encoding a
value not listed above, or a number too big for its field, raises it too.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, Tuple

from repro.common import Priority
from repro.errors import ConfigurationError
from repro.obs.export import _message_registry
from repro.sim.transport import AckSegment, Segment
from repro.substrate import SiteId

#: Wire protocol version; bumped on any incompatible layout change.
WIRE_VERSION = 2

#: Generous ceiling for one datagram (localhost loopback MTU is 64 KiB).
MAX_DATAGRAM = 60_000

#: Class index -> (message class, field names): the trace schema's whole
#: registry (nine algorithms, ``Bundle``, failure detector, replication).
CLASS_TABLE: Tuple[Tuple[type, Tuple[str, ...]], ...] = tuple(
    (cls, tuple(field.name for field in dataclasses.fields(cls)))
    for cls in _message_registry().values()
)

_BARE, _SEGMENT, _ACK = range(3)
_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR, _PRIORITY, _TUPLE, _MESSAGE = range(9)

_BARE_HEAD = struct.Struct("!BBHH")
_SEGMENT_HEAD = struct.Struct("!BBHHIIiI")
_ACK_FRAME = struct.Struct("!BBHHiI")
_TAG_U16 = struct.Struct("!BH")
_TAG_I64 = struct.Struct("!Bq")
_TAG_F64 = struct.Struct("!Bd")
_TAG_I64_PAIR = struct.Struct("!Bqq")


def _encode_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out += _TAG_U16.pack(_STR, len(raw)) + raw


def _encode_tuple(value, out: bytearray) -> None:
    out += _TAG_U16.pack(_TUPLE, len(value))
    for item in value:
        _ENCODERS[type(item)](item, out)


def _message_encoder(index: int, names: Tuple[str, ...]):
    head = bytes((_MESSAGE, index, len(names)))

    def encode(msg, out: bytearray) -> None:
        out += head
        for name in names:
            _ENCODERS[type(value := getattr(msg, name))](value, out)

    return encode


#: Exact value type -> function appending its tagged form to ``out``.
_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {
    type(None): lambda value, out: out.append(_NONE),
    bool: lambda value, out: out.append(_TRUE if value else _FALSE),
    int: lambda value, out: out.extend(_TAG_I64.pack(_INT, value)),
    float: lambda value, out: out.extend(_TAG_F64.pack(_FLOAT, value)),
    str: _encode_str,
    Priority: lambda value, out: out.extend(
        _TAG_I64_PAIR.pack(_PRIORITY, value.seq, value.site)
    ),
    tuple: _encode_tuple,
    list: _encode_tuple,
}
for _index, (_cls, _names) in enumerate(CLASS_TABLE):
    _ENCODERS[_cls] = _message_encoder(_index, _names)


def encode_frame(src: SiteId, dst: SiteId, frame: Any, type_name: str) -> bytes:
    """Serialize one outbound frame to datagram bytes."""
    try:
        if type(frame) is AckSegment:
            return _ACK_FRAME.pack(WIRE_VERSION, _ACK, src, dst, frame.ack, frame.epoch)
        if type(frame) is Segment:
            out = bytearray(_SEGMENT_HEAD.pack(
                WIRE_VERSION, _SEGMENT, src, dst,
                frame.seq, frame.epoch, frame.ack, frame.ack_epoch,
            ))
            type_name, frame = frame.type_name, frame.payload
        else:
            out = bytearray(_BARE_HEAD.pack(WIRE_VERSION, _BARE, src, dst))
        _encode_str(type_name, out)
        _ENCODERS[type(frame)](frame, out)
    except (struct.error, KeyError) as exc:
        raise ConfigurationError(
            f"frame {type_name!r} {src}->{dst}: out of range or unencodable: {exc!r}"
        ) from exc
    if len(out) > MAX_DATAGRAM:
        raise ConfigurationError(
            f"frame {type_name!r} serializes to {len(out)} bytes, over the "
            f"{MAX_DATAGRAM}-byte datagram ceiling"
        )
    return bytes(out)


def _decode_str(data: bytes, pos: int) -> Tuple[str, int]:
    # A length running past the datagram fails decode_frame's final position check.
    end = pos + 3 + _TAG_U16.unpack_from(data, pos)[1]
    return data[pos + 3:end].decode("utf-8"), end


def _decode_items(data: bytes, pos: int, count: int) -> Tuple[tuple, int]:
    values = []
    for _ in range(count):
        value, pos = _DECODERS[data[pos]](data, pos)
        values.append(value)
    return tuple(values), pos


def _decode_message(data: bytes, pos: int) -> Tuple[Any, int]:
    cls, names = CLASS_TABLE[data[pos + 1]]
    if data[pos + 2] != len(names):
        raise ConfigurationError(f"{cls.__name__} sent with {data[pos + 2]} fields")
    values, pos = _decode_items(data, pos + 3, len(names))
    return cls(*values), pos


#: Tag -> function ``(data, pos of the tag) -> (value, pos after it)``.
_DECODERS: Dict[int, Callable[[bytes, int], Tuple[Any, int]]] = {
    _NONE: lambda data, pos: (None, pos + 1),
    _FALSE: lambda data, pos: (False, pos + 1),
    _TRUE: lambda data, pos: (True, pos + 1),
    _INT: lambda data, pos: (_TAG_I64.unpack_from(data, pos)[1], pos + 9),
    _FLOAT: lambda data, pos: (_TAG_F64.unpack_from(data, pos)[1], pos + 9),
    _STR: _decode_str,
    _PRIORITY: lambda data, pos: (
        Priority(*_TAG_I64_PAIR.unpack_from(data, pos)[1:]), pos + 17
    ),
    _TUPLE: lambda data, pos: _decode_items(
        data, pos + 3, _TAG_U16.unpack_from(data, pos)[1]
    ),
    _MESSAGE: _decode_message,
}


def decode_frame(data: bytes) -> Tuple[SiteId, SiteId, Any, str]:
    """Deserialize datagram bytes to ``(src, dst, frame, type_name)``.

    ``frame`` is a protocol message, a :class:`Segment`, or an
    :class:`AckSegment` — exactly what
    :meth:`~repro.sim.transport.ReliableTransport.on_network_deliver`
    (or a raw delivery path) expects.
    """
    if not data or data[0] != WIRE_VERSION:
        raise ConfigurationError(f"unsupported wire version: starts {data[:1]!r}")
    try:
        kind = data[1]
        if kind == _ACK:
            _, _, src, dst, ack, epoch = _ACK_FRAME.unpack(data)
            return src, dst, AckSegment(ack, epoch), AckSegment.type_name
        if kind not in (_BARE, _SEGMENT):
            raise ConfigurationError(f"unknown frame kind {kind}")
        head = _SEGMENT_HEAD if kind == _SEGMENT else _BARE_HEAD
        _, _, src, dst, *position = head.unpack_from(data)  # none on a bare frame
        (type_name, payload), pos = _decode_items(data, head.size, 2)
        if type(type_name) is not str or pos != len(data):
            raise ConfigurationError("type name is not a str, or bytes trail")
    except (  # an IndexError is a LookupError, a UnicodeDecodeError a ValueError
        struct.error, LookupError, TypeError, ValueError, RecursionError,
        ConfigurationError,
    ) as exc:
        raise ConfigurationError(f"malformed datagram: {exc!r}") from exc
    frame = Segment(*position, payload, type_name) if kind == _SEGMENT else payload
    return src, dst, frame, type_name
