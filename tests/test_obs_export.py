"""Trace export/import: JSONL round-trips with full record fidelity.

The schema's contract is that an imported trace is indistinguishable
from the live one — equal ``TraceRecord`` objects, message payloads
included — so a monitor replay over the import reaches the exact same
verdicts. These tests prove that over real runs of three algorithms
and pin the failure modes (unknown schema, unknown class, opaque
details) explicitly.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import json
import re
from pathlib import Path

import pytest

from repro.common import Bundle, Priority
from repro.core.messages import Reply, Transfer
from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, run_mutex
from repro.obs.export import (
    SCHEMA,
    Opaque,
    _message_registry,
    decode_record,
    encode_record,
    export_jsonl,
    import_jsonl,
)
from repro.obs.monitor import ProtocolMonitor
from repro.sim.network import UniformDelay
from repro.sim.trace import TraceRecord
from repro.workload.driver import SaturationWorkload

CORPUS_DIR = Path(__file__).parent / "data" / "counterexamples"


def traced_run(algorithm: str, seed: int):
    monitor = ProtocolMonitor(strict=True)
    result = run_mutex(
        RunConfig(
            algorithm=algorithm,
            n_sites=9,
            seed=seed,
            delay_model=UniformDelay(0.5, 1.5),
            workload=SaturationWorkload(4),
            trace=monitor.trace,
        )
    )
    return result, monitor


@pytest.mark.parametrize("algorithm", ["cao-singhal", "maekawa", "ricart-agrawala"])
@pytest.mark.parametrize("seed", [0, 1])
def test_round_trip_fidelity(tmp_path, algorithm, seed):
    _, monitor = traced_run(algorithm, seed)
    live = list(monitor.trace)
    path = tmp_path / "trace.jsonl"
    meta = {"algorithm": algorithm, "seed": seed, "n_sites": 9}
    count = export_jsonl(live, str(path), meta=meta)
    assert count == len(live) > 0

    imported = import_jsonl(str(path))
    assert imported.schema == SCHEMA
    assert imported.meta == meta
    assert len(imported) == len(live)
    assert imported.records == live  # full object equality, payloads included


@pytest.mark.parametrize("seed", [0, 1])
def test_replay_of_imported_trace_matches_live_monitor(tmp_path, seed):
    _, live_monitor = traced_run("cao-singhal", seed)
    path = tmp_path / "trace.jsonl"
    export_jsonl(list(live_monitor.trace), str(path))

    replayer = ProtocolMonitor(strict=True)
    violations = replayer.replay(import_jsonl(str(path)))
    assert violations == []
    assert replayer.records_seen == live_monitor.records_seen
    assert len(replayer.handoff_delays) == len(live_monitor.handoff_delays)
    assert replayer.handoff_mean() == pytest.approx(live_monitor.handoff_mean())


def test_record_encoding_shapes():
    """The wire format is part of the schema: spot-check it directly."""
    rec = TraceRecord(time=1.5, kind="deliver", site=3, detail=Priority(7, 2))
    row = json.loads(encode_record(rec))
    assert row == {"t": 1.5, "k": "deliver", "s": 3, "d": {"$p": [7, 2]}}

    rec = TraceRecord(time=0.0, kind="cs_enter", site=4, detail=None)
    assert "d" not in json.loads(encode_record(rec))

    bundle = Bundle(
        parts=(
            Reply(arbiter=1, grantee=Priority(3, 2), epoch=5),
            Transfer(
                beneficiary=Priority(4, 6),
                arbiter=1,
                holder=Priority(3, 2),
                holder_epoch=5,
            ),
        )
    )
    rec = TraceRecord(time=2.0, kind="deliver", site=2, detail=bundle)
    decoded = decode_record(encode_record(rec))
    assert decoded == rec
    assert decoded.detail.parts[0].forwarded_by is None


def test_unknown_detail_becomes_opaque_and_reexports():
    class Mystery:
        def __repr__(self):
            return "<mystery 42>"

    rec = TraceRecord(time=1.0, kind="deliver", site=0, detail=Mystery())
    decoded = decode_record(encode_record(rec))
    assert decoded.detail == Opaque("<mystery 42>")
    # A re-export of the imported record must survive another cycle.
    again = decode_record(encode_record(decoded))
    assert again == decoded


def test_import_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema":"repro-trace/99"}\n')
    with pytest.raises(ConfigurationError, match="unsupported trace schema"):
        import_jsonl(str(path))


def test_import_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ConfigurationError, match="empty trace file"):
        import_jsonl(str(path))


def test_decode_rejects_unknown_message_class():
    line = '{"t":1.0,"k":"deliver","s":0,"d":{"$m":"NotARealMessage","f":{}}}'
    with pytest.raises(ConfigurationError, match="unknown message class"):
        decode_record(line)


def test_export_without_meta_reads_back_empty_meta(tmp_path):
    path = tmp_path / "trace.jsonl"
    export_jsonl([TraceRecord(time=0.0, kind="request", site=1, detail=None)], str(path))
    imported = import_jsonl(str(path))
    assert imported.meta == {}
    assert len(imported) == 1


# -- byte identity: the template encoder against the documented schema ---------


def schema_form(value):
    """``value`` as the JSON-ready objects the module docstring documents
    (the dict-building encoder ``encode_record`` used to run through
    ``json.dumps``; kept here as the reference)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Priority):
        return {"$p": [value.seq, value.site]}
    if isinstance(value, Opaque):
        return {"$r": value.text}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "$m": type(value).__name__,
            "f": {
                field.name: schema_form(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [schema_form(item) for item in value]
    return {"$r": repr(value)}


def reference_line(rec: TraceRecord) -> str:
    row = {"t": rec.time, "k": rec.kind, "s": rec.site}
    if rec.detail is not None:
        row["d"] = schema_form(rec.detail)
    return json.dumps(row, separators=(",", ":"))


class Mystery:
    def __repr__(self):
        return '<mystery "42" \\ é>'


class Colour(enum.IntEnum):
    RED = 1


#: Three sample values per field annotation used in the message modules.
SAMPLES = {
    "int": (0, -7, 1 << 62),
    "SiteId": (0, 3, 48),
    "bool": (True, False, True),
    "Priority": (Priority(7, 3), Priority.maximum(), Priority(0, 0)),
    "Optional[SiteId]": (None, 0, 5),
    "Optional[Priority]": (None, Priority(2, 1), Priority.maximum()),
    "Tuple[int, ...]": ((), (1,), (3, -2, 0)),
    "Tuple[SiteId, ...]": ((), (4,), (0, 1, 2)),
    "Tuple[str, ...]": ((), ("R",), ("N", 'q"\\', "é")),
    "Version": ((0, -1), (3, 2), (1 << 40, 0)),
    "Any": (None, "value ☃", (1.5, [True, None], {"k": 1})),
}


def registry_instances():
    for cls in _message_registry().values():
        if cls is Bundle:
            continue
        fields = dataclasses.fields(cls)
        for variant in range(3 if fields else 1):
            yield cls(*[SAMPLES[field.type][variant] for field in fields])


DETAILS = [
    *registry_instances(),
    Bundle(parts=tuple(registry_instances())[:3]),
    None, True, False, 0, -1, 1 << 70, 0.0, -0.0, 1e-7, 1e22, 0.1 + 0.2,
    float("inf"), float("-inf"), float("nan"),
    "", "plain", "non-ASCII é ☃ \U0001f600", 'quote " backslash \\ slash /',
    "control \x00 \x1f \n \t \x7f", "percent %s %d %%",
    (), (1, "two", 3.0, None), [Priority(1, 2), (Priority(3, 4),)], ((), ((),)),
    Priority(7, 2), Priority.maximum(), Priority(1.5, True),
    Opaque("<mystery 42>"), Opaque('needs "escaping" \\ é'),
    Mystery(), {"a": 1}, frozenset(), b"bytes", Colour.RED, Mystery,
]


@pytest.mark.parametrize("detail", DETAILS, ids=lambda d: type(d).__name__)
def test_encode_record_is_byte_identical_to_the_schema_through_json_dumps(detail):
    for time, kind, site in ((1.5, "deliver", 3), (0, 'k"\\é', -1), (1e-9, "", None)):
        rec = TraceRecord(time=time, kind=kind, site=site, detail=detail)
        assert encode_record(rec) == reference_line(rec)


@pytest.mark.parametrize(
    "path", sorted(CORPUS_DIR.glob("*.jsonl")), ids=lambda p: p.name
)
def test_counterexample_corpus_reexports_byte_for_byte(path):
    imported = import_jsonl(str(path))
    out = io.StringIO()
    export_jsonl(imported.records, out, meta=imported.meta)
    assert out.getvalue() == path.read_text(encoding="utf-8")


# -- malformed traces are droppable, never fatal --------------------------------


@pytest.mark.parametrize(
    "line",
    [
        '{"t":1.0,"k":"deliver","s":0,"d":{"$m":"Rep',  # torn mid-write
        "not json at all",
        '{"t":1.0,"k":"deliver"}',  # no site
        "[1, 2, 3]",
        '{"t":1.0,"k":"deliver","s":0,"d":{"$m":"Reply","f":{"bogus":1}}}',
        '{"t":1.0,"k":"deliver","s":0,"d":{"$m":"Reply","f":3}}',
        '{"t":1.0,"k":"deliver","s":0,"d":{"$p":[1]}}',
        '{"t":1.0,"k":"deliver","s":0,"d":{"$x":1}}',
    ],
)
def test_malformed_record_raises_configuration_error_naming_the_line(tmp_path, line):
    with pytest.raises(ConfigurationError):
        decode_record(line)
    good = encode_record(TraceRecord(time=0.0, kind="request", site=1))
    path = tmp_path / "torn.jsonl"
    path.write_text(f'{{"schema":"{SCHEMA}"}}\n{good}\n\n{line}\n')
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}:4: ")):
        import_jsonl(str(path))
    with pytest.raises(ConfigurationError, match="<stream>:4: "):
        import_jsonl(path.read_text().splitlines())


@pytest.mark.parametrize("header", ["{not json", "[]", '"repro-trace/1"', "7"])
def test_malformed_header_raises_configuration_error(header):
    with pytest.raises(ConfigurationError, match="<stream>:1: "):
        import_jsonl([header, ""])
