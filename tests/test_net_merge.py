"""Trace-shard merging tests: per-site ``repro-trace/1`` JSONL shards
combine into one stream the runtime monitor can replay — ordering,
tie-break stability, bundled messages, and crash records included —
and the streamed merge writes the shards' own lines, byte for byte what
re-encoding the stable-sorted decoded records would write."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.common import Bundle, Priority
from repro.core.messages import Inquire, Release, Request, Transfer
from repro.errors import ConfigurationError
from repro.net import NetRunConfig, NetSubstrate, run_net
from repro.net import config as layout
from repro.net.launcher import _run_inproc_async
from repro.net.merge import merge_records, merge_shard_files
from repro.obs.export import decode_record, export_jsonl, import_jsonl
from repro.obs.monitor import ProtocolMonitor
from repro.sim.trace import TraceRecord


def rec(t, kind, site, detail=None):
    return TraceRecord(time=t, kind=kind, site=site, detail=detail)


def test_merge_orders_across_shards_by_time():
    a = [rec(1.0, "deliver", 0), rec(3.0, "cs_enter", 0)]
    b = [rec(0.5, "request", 1), rec(2.0, "deliver", 1)]
    merged = merge_records([a, b])
    assert [r.time for r in merged] == [0.5, 1.0, 2.0, 3.0]


def test_merge_is_stable_within_equal_timestamps():
    # Two records from one shard inside the same clock tick must keep
    # their shard order: a site's cs_enter may never migrate before the
    # deliver that caused it.
    a = [rec(1.0, "deliver", 0, "cause"), rec(1.0, "cs_enter", 0)]
    b = [rec(1.0, "request", 1)]
    merged = merge_records([a, b])
    a_order = [r.kind for r in merged if r.site == 0]
    assert a_order == ["deliver", "cs_enter"]


def test_merge_shard_files_roundtrips_through_jsonl(tmp_path):
    shard_a = tmp_path / "trace-0.jsonl"
    shard_b = tmp_path / "trace-1.jsonl"
    bundle = Bundle(
        parts=(
            Transfer(
                beneficiary=Priority(2, 1), arbiter=0, holder=Priority(1, 0)
            ),
            Inquire(arbiter=0, target=Priority(1, 0)),
        )
    )
    export_jsonl(
        [
            rec(0.2, "request", 0, Priority(1, 0)),
            rec(1.5, "deliver", 0, bundle),
            rec(4.0, "crash", 0),
        ],
        str(shard_a),
        meta={"site": 0, "substrate": "net"},
    )
    export_jsonl(
        [rec(0.9, "deliver", 1, Request(Priority(1, 0)))],
        str(shard_b),
        meta={"site": 1, "substrate": "net"},
    )
    out = tmp_path / "merged.jsonl"
    merged = merge_shard_files([shard_a, shard_b], out_path=str(out))

    assert [r.time for r in merged.records] == [0.2, 0.9, 1.5, 4.0]
    # Bundled messages and crash records survive the round trip intact.
    assert merged.records[2].detail == bundle
    assert merged.records[3].kind == "crash"
    assert merged.meta["merged_shards"] == 2

    # The written merged file is itself a valid repro-trace/1 stream.
    replayed = import_jsonl(str(out))
    assert replayed.records == merged.records
    assert replayed.meta["merged_shards"] == 2


def test_merged_stream_is_monitor_replayable(tmp_path):
    # A tiny two-site history, sharded by site, must replay cleanly.
    shard_a = tmp_path / "a.jsonl"
    shard_b = tmp_path / "b.jsonl"
    export_jsonl(
        [
            rec(0.1, "request", 0, Priority(1, 0)),
            rec(1.0, "cs_enter", 0),
            rec(2.0, "cs_exit", 0),
            rec(2.1, "deliver", 0, Release(releaser=Priority(1, 0))),
        ],
        str(shard_a),
    )
    export_jsonl(
        [
            rec(2.5, "request", 1, Priority(2, 1)),
            rec(3.5, "cs_enter", 1),
            rec(4.0, "cs_exit", 1),
        ],
        str(shard_b),
    )
    merged = merge_shard_files([shard_a, shard_b])
    monitor = ProtocolMonitor(strict=False)
    assert monitor.replay(merged.records) == []
    assert monitor.records_seen == 7


def test_merge_overlapping_cs_is_caught_after_merging(tmp_path):
    # The violation only exists *across* shards — exactly what merging
    # is for: each site's own shard looks locally innocent.
    shard_a = tmp_path / "a.jsonl"
    shard_b = tmp_path / "b.jsonl"
    export_jsonl([rec(1.0, "cs_enter", 0), rec(5.0, "cs_exit", 0)], str(shard_a))
    export_jsonl([rec(2.0, "cs_enter", 1), rec(3.0, "cs_exit", 1)], str(shard_b))
    merged = merge_shard_files([shard_a, shard_b])
    violations = ProtocolMonitor(strict=False).replay(merged.records)
    assert violations, "overlapping CS intervals must be flagged"


def test_merge_requires_at_least_one_shard():
    with pytest.raises(ConfigurationError):
        merge_shard_files([])


# -- the streamed merge against the re-encoding reference ----------------------

SMALL = dict(algorithm="cao-singhal", n_sites=5, requests_per_site=4, unit=0.002)
MERGED_META = {"spawn": "inproc", "merged": True, "site": None}


def _shard_paths(run_dir, n_sites):
    return [layout.trace_path(run_dir, i) for i in range(n_sites)]


def _reference_merge(paths, out_path, meta):
    """The merge as a re-encoding pass: decode every shard, concatenate,
    stable-sort by time, export the records under the merged header."""
    shards = [import_jsonl(str(path)) for path in paths]
    records = [rec for shard in shards for rec in shard.records]
    records.sort(key=lambda rec: rec.time)
    merged_meta = dict(shards[0].meta)
    merged_meta["merged_shards"] = len(shards)
    merged_meta.update(meta)
    export_jsonl(records, str(out_path), meta=merged_meta)
    return records


@pytest.mark.parametrize("seed", [1, 2])
def test_inproc_merged_file_equals_the_reencoded_reference(tmp_path, seed):
    config = NetRunConfig(seed=seed, **SMALL)
    report = run_net(config, run_dir=tmp_path / "run", spawn="inproc")
    assert report.clean and report.completed == report.submitted
    reference = tmp_path / "reference.jsonl"
    records = _reference_merge(
        _shard_paths(tmp_path / "run", config.n_sites), reference, MERGED_META
    )
    with open(report.merged_path, "rb") as got, open(reference, "rb") as want:
        assert got.read() == want.read()
    monitor = ProtocolMonitor(strict=False)
    assert monitor.replay(records) == []
    assert monitor.report() == report.monitor


def test_in_memory_records_are_the_shard_lines(tmp_path):
    config = NetRunConfig(seed=3, **SMALL)
    _summaries, traces = asyncio.run(_run_inproc_async(config, tmp_path))
    paths = _shard_paths(tmp_path, config.n_sites)
    for path, trace in zip(paths, traces):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        assert [decode_record(line) for line in lines] == list(trace)

    # Pairing with the in-memory records merges exactly what decoding does.
    paired = merge_shard_files(paths, tmp_path / "paired.jsonl", records=traces)
    decoded = merge_shard_files(paths, tmp_path / "decoded.jsonl")
    assert paired.records == decoded.records
    assert (tmp_path / "paired.jsonl").read_bytes() == (
        tmp_path / "decoded.jsonl"
    ).read_bytes()


def _two_shards(tmp_path):
    a = [rec(0.5, "request", 0, Priority(1, 0)), rec(1.5, "cs_enter", 0)]
    b = [rec(1.0, "request", 1, Priority(1, 1))]
    paths = [tmp_path / "trace-0.jsonl", tmp_path / "trace-1.jsonl"]
    export_jsonl(a, str(paths[0]))
    export_jsonl(b, str(paths[1]))
    return paths, [a, b]


@pytest.mark.parametrize("paired", [False, True])
def test_shard_file_ties_keep_shard_order(tmp_path, paired):
    # Equal timestamps across shards go to the lower shard index, each
    # shard's own order kept — the stable sort's order, in the records
    # returned and in the lines written.
    shards = [
        [rec(1.0, "deliver", 0, "cause"), rec(1.0, "cs_enter", 0)],
        [rec(1.0, "request", 1), rec(2.0, "cs_exit", 1)],
        [rec(0.5, "request", 2), rec(1.0, "deliver", 2)],
    ]
    paths = [tmp_path / f"trace-{i}.jsonl" for i in range(len(shards))]
    for path, records in zip(paths, shards):
        export_jsonl(records, str(path))
    out = tmp_path / "merged.jsonl"
    merged = merge_shard_files(paths, out, records=shards if paired else None)
    expected = sorted((r for shard in shards for r in shard), key=lambda r: r.time)
    assert merged.records == expected
    assert [(r.site, r.kind) for r in merged.records][:4] == [
        (2, "request"), (0, "deliver"), (0, "cs_enter"), (1, "request"),
    ]
    assert import_jsonl(str(out)).records == expected


def test_record_count_mismatch_is_refused(tmp_path):
    paths, records = _two_shards(tmp_path)
    assert len(merge_shard_files(paths, records=records)) == 3
    with pytest.raises(ConfigurationError, match="more lines than"):
        merge_shard_files(paths, records=[records[0][:1], records[1]])
    with pytest.raises(ConfigurationError, match="more in-memory records"):
        merge_shard_files(paths, records=[records[0], records[1] * 2])
    with pytest.raises(ConfigurationError, match="record lists for 2 shards"):
        merge_shard_files(paths, records=records[:1])


@pytest.mark.parametrize(
    "tail, number",
    [('{"t":2.0,"k":"cs_ex', 4), ("not json\n", 4), ("\n\n[1,2]\n", 6)],
)
def test_bad_line_in_a_decoded_shard_names_file_and_line(tmp_path, tail, number):
    # Process-mode shards are decoded: a torn or malformed line must
    # still point at its file and line.
    paths, _records = _two_shards(tmp_path)
    with open(paths[0], "a", encoding="utf-8") as fh:
        fh.write(tail)
    with pytest.raises(ConfigurationError, match=f"trace-0.jsonl:{number}: "):
        merge_shard_files(paths, tmp_path / "merged.jsonl")


# -- the substrate clock ---------------------------------------------------------


def test_substrate_clock_ignores_wall_clock_steps(monkeypatch):
    substrate = NetSubstrate(0, NetRunConfig(n_sites=1, unit=1.0))
    wall = time.time()
    substrate.configure({}, wall - 5.0)
    before = substrate.now
    assert 5.0 <= before < 6.0  # still reads wall time since the epoch
    # Step the wall clock back an hour: the substrate clock keeps going.
    monkeypatch.setattr(time, "time", lambda: wall - 3600.0)
    assert substrate.now >= before


@pytest.mark.parametrize("spawn", ["inproc", "process"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shard_times_never_go_backwards(tmp_path, spawn, seed):
    config = NetRunConfig(
        algorithm="cao-singhal", n_sites=3, requests_per_site=3, seed=seed,
        unit=0.002,
    )
    report = run_net(config, run_dir=tmp_path, spawn=spawn)
    assert report.clean
    for path in _shard_paths(tmp_path, config.n_sites):
        times = [r.time for r in import_jsonl(str(path)).records]
        assert times, f"{path} is empty"
        assert all(a <= b for a, b in zip(times, times[1:])), path
