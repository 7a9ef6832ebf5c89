"""Trace export/import: stable-schema JSONL for ``TraceRecord`` streams.

A trace that caught (or just preceded) an invariant violation is the
single most useful debugging artifact a CI run can leave behind — but
only if it survives the process. This module serializes a trace to JSON
Lines with full round-trip fidelity: records decode back to equal
``TraceRecord`` objects, message payloads included, so the runtime
monitor can :meth:`~repro.obs.monitor.ProtocolMonitor.replay` an
imported trace exactly as it would have seen it live.

Schema (``repro-trace/1``) — one JSON object per line:

* Line 1, the header: ``{"schema": "repro-trace/1", "meta": {...}}``.
  ``meta`` is free-form run context (algorithm, sites, seed, ...).
* Every further line, one record: ``{"t": time, "k": kind, "s": site,
  "d": detail}`` (``d`` omitted when the detail is ``None``).

Detail encoding is by tagged objects, recursively:

* ``{"$p": [seq, site]}`` — a :class:`~repro.common.Priority`;
* ``{"$m": "ClassName", "f": {...}}`` — a protocol message dataclass,
  found by class name in a registry built from the known message
  modules (``Bundle`` included: its ``parts`` tuple round-trips);
* JSON arrays decode to tuples (messages never carry lists);
* ``{"$r": "repr"}`` — anything unknown, wrapped as an :class:`Opaque`
  placeholder that preserves equality on the repr text.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
from math import isfinite
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common import Priority, slotted_dataclass
from repro.errors import ConfigurationError
from repro.sim.trace import TraceRecord

SCHEMA = "repro-trace/1"

#: Modules whose dataclasses with a ``type_name`` are wire messages.
_MESSAGE_MODULES = (
    "repro.common",
    "repro.core.messages",
    "repro.mutex.maekawa",
    "repro.mutex.ricart_agrawala",
    "repro.mutex.suzuki_kasami",
    "repro.mutex.raymond",
    "repro.mutex.lamport",
    "repro.mutex.centralized",
    "repro.mutex.singhal_heuristic",
    "repro.mutex.roucairol_carvalho",
    "repro.ft.detector",
    "repro.replication.messages",
)


@slotted_dataclass(frozen=True)
class Opaque:
    """Placeholder for a detail value the schema cannot reconstruct."""

    text: str


@slotted_dataclass(frozen=True)
class TraceFile:
    """An imported trace: header metadata plus the decoded records."""

    schema: str
    meta: Dict[str, Any]
    records: List[TraceRecord]

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


@functools.lru_cache(maxsize=None)
def _message_registry() -> Dict[str, type]:
    """Class-name -> class for every known wire-message dataclass.

    Built lazily so importing :mod:`repro.obs` does not pull in every
    algorithm module. Class names are unique across the codebase (the
    per-algorithm prefixes — ``Mk*``, ``RA*`` — exist for this reason);
    a collision would corrupt decoding, so it is a hard error.
    """
    registry: Dict[str, type] = {}
    for module_name in _MESSAGE_MODULES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:  # pragma: no cover - optional algorithm module
            continue
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and hasattr(obj, "type_name")
            ):
                existing = registry.get(obj.__name__)
                if existing is not None and existing is not obj:
                    raise ConfigurationError(
                        f"message class name collision: {obj.__name__} in "
                        f"{existing.__module__} and {obj.__module__}"
                    )
                registry[obj.__name__] = obj
    return registry


_quote = json.encoder.encode_basestring_ascii


def _sequence_json(value) -> str:
    return "[" + ",".join([_json_of[type(item)](item) for item in value]) + "]"


def _dataclass_json(cls: type) -> Callable[[Any], str]:
    """Compile ``cls``'s tagged JSON object into a ``%``-template (tag, class
    name and quoted field names literal, a ``%s`` per field); return its filler."""
    names = [field.name for field in dataclasses.fields(cls)]
    if cls is Priority:
        template = '{"$p":[%s,%s]}'
    elif cls is Opaque:
        template = '{"$r":%s}'
    else:
        body = ",".join(_quote(name) + ":%s" for name in names)
        template = '{"$m":' + _quote(cls.__name__) + ',"f":{' + body + "}}"

    def encode(value) -> str:
        return template % tuple(
            [_json_of[type(item := getattr(value, name))](item) for name in names]
        )

    return encode


class _JsonEncoders(dict):
    """Exact type -> function writing the JSON text of a value's tagged
    form as ``json.dumps`` would. A type not seeded below is compiled on
    first sight, by the schema's precedence: a JSON scalar's subclass as
    the scalar, a dataclass by template, a sequence as array, else opaque."""

    def __missing__(self, cls: type) -> Callable[[Any], str]:
        scalar = next((b for b in (int, float, str) if issubclass(cls, b)), None)
        if scalar is not None:
            encode = self[scalar]
        elif dataclasses.is_dataclass(cls):
            encode = _dataclass_json(cls)
        elif issubclass(cls, (list, tuple)):
            encode = _sequence_json
        else:
            encode = lambda value: '{"$r":' + _quote(repr(value)) + "}"  # noqa: E731
        self[cls] = encode
        return encode


_json_of = _JsonEncoders({
    int: int.__repr__,
    float: lambda value: (
        float.__repr__(value) if isfinite(value) else json.dumps(value)
    ),
    str: _quote,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
})


def _decode_detail(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_decode_detail(item) for item in value)
    if not isinstance(value, dict):
        return value
    if "$p" in value:
        seq, site = value["$p"]
        return Priority(seq, site)
    if "$m" in value:
        cls = _message_registry().get(value["$m"])
        if cls is None:
            raise ConfigurationError(
                f"trace names unknown message class {value['$m']!r}"
            )
        fields = {
            name: _decode_detail(item) for name, item in value["f"].items()
        }
        return cls(**fields)
    if "$r" in value:
        return Opaque(value["$r"])
    raise ConfigurationError(f"unrecognized detail encoding: {value!r}")


def encode_record(rec: TraceRecord) -> str:
    """One record as its JSONL line (no trailing newline)."""
    time, kind, site, detail = rec.time, rec.kind, rec.site, rec.detail
    line = '{"t":%s,"k":%s,"s":%s' % (
        _json_of[type(time)](time), _json_of[type(kind)](kind), _json_of[type(site)](site)
    )
    if detail is None:
        return line + "}"
    return line + ',"d":' + _json_of[type(detail)](detail) + "}"


def decode_record(line: str) -> TraceRecord:
    """Inverse of :func:`encode_record`; ConfigurationError on a malformed line."""
    try:
        row = json.loads(line)
        return TraceRecord(
            time=row["t"],
            kind=row["k"],
            site=row["s"],
            detail=_decode_detail(row["d"]) if "d" in row else None,
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigurationError(f"malformed trace record: {exc!r}") from exc


def encode_header(meta: Optional[Dict[str, Any]] = None) -> str:
    """The header line that opens a trace file (no trailing newline)."""
    header: Dict[str, Any] = {"schema": SCHEMA}
    if meta:
        header["meta"] = meta
    return json.dumps(header, separators=(",", ":"))


def export_jsonl(
    records: Iterable[TraceRecord],
    path,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a header plus one line per record; returns the record count.

    ``path`` is a filesystem path or any text file object (``write``
    suffices) — the latter is what lets the CLI stream a trace to
    stdout with ``--out -``. A passed-in file object is not closed.
    """
    count = 0
    if hasattr(path, "write"):
        fh = path
        close = False
    else:
        fh = open(path, "w", encoding="utf-8")
        close = True
    try:
        fh.write(encode_header(meta) + "\n")
        for rec in records:
            fh.write(encode_record(rec) + "\n")
            count += 1
    finally:
        if close:
            fh.close()
    return count


def import_jsonl(path) -> TraceFile:
    """Read a JSONL trace back into decoded records (strict on schema).

    ``path`` is a filesystem path or any iterable of lines (an open
    text file, ``sys.stdin``, a list). A passed-in object is consumed,
    not closed.
    """
    if hasattr(path, "read") or not isinstance(path, (str, bytes)):
        return _import_lines(iter(path), label="<stream>")
    with open(path, "r", encoding="utf-8") as fh:
        return _import_lines(iter(fh), label=str(path))


def _import_lines(lines, label: str) -> TraceFile:
    meta = read_header(lines, label)
    records = [rec for rec, _line in decode_lines(lines, label)]
    return TraceFile(schema=SCHEMA, meta=meta, records=records)


def read_header(lines, label: str) -> Dict[str, Any]:
    """Consume a trace's header line from ``lines``; returns its ``meta``.

    ``label`` names the source in errors: an empty file, a malformed
    header or a foreign schema raise :class:`ConfigurationError`.
    """
    header_line = next(lines, "")
    if not header_line.strip():
        raise ConfigurationError(f"{label}: empty trace file")
    try:
        header = json.loads(header_line)
        schema = header.get("schema")
        if schema != SCHEMA:
            raise ConfigurationError(
                f"unsupported trace schema {schema!r} (expected {SCHEMA!r})"
            )
        return header.get("meta", {})
    except (ValueError, AttributeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{label}:1: {exc}") from exc


def decode_lines(lines, label: str) -> Iterator[Tuple[TraceRecord, str]]:
    """Decode the record lines that follow a header, each exactly once.

    Yields ``(record, line)`` with the line as read, newline-terminated;
    blank lines are skipped. A malformed line raises
    :class:`ConfigurationError` labelled ``<label>:<line number>``.
    """
    number = 1  # of the line being parsed, for the error message
    try:
        for number, line in enumerate(lines, start=2):
            if line.strip():
                if not line.endswith("\n"):
                    line += "\n"
                yield decode_record(line), line
    except (ValueError, AttributeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{label}:{number}: {exc}") from exc
