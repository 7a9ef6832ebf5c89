"""Tests for the CI perf-trend helper (benchmarks/trend.py).

The helper is a standalone script (it must run without PYTHONPATH=src in
a minimal CI step), so it is loaded by file path here.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

_TREND_PATH = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "trend.py"
)
_spec = importlib.util.spec_from_file_location("bench_trend", _TREND_PATH)
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)


def test_extract_throughput_walks_nested_dicts():
    payload = {
        "events_per_sec": 1000,
        "speedup": 2.0,  # not a throughput key
        "throughput": {"states_per_sec": 50.5},
        "fault_grid": {"nested": {"states_per_sec": 7}},
    }
    assert trend.extract_throughput(payload) == {
        "events_per_sec": 1000.0,
        "throughput.states_per_sec": 50.5,
        "fault_grid.nested.states_per_sec": 7.0,
    }


def test_extract_throughput_ignores_non_numeric():
    assert trend.extract_throughput({"events_per_sec": "fast"}) == {}
    assert trend.extract_throughput({"rows": [1, 2, 3]}) == {}


def _write(path: pathlib.Path, payload: dict) -> pathlib.Path:
    path.write_text(json.dumps(payload))
    return path


def test_append_accumulates_jsonl_records(tmp_path, capsys):
    result = _write(tmp_path / "r.json", {"events_per_sec": 123})
    out = tmp_path / "history.jsonl"
    for sha in ("aaa", "bbb"):
        code = trend.main(
            ["append", "--bench", "kernel", "--result", str(result),
             "--out", str(out), "--sha", sha]
        )
        assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["sha"] for r in records] == ["aaa", "bbb"]
    assert all(r["bench"] == "kernel" for r in records)
    assert all(r["metrics"] == {"events_per_sec": 123.0} for r in records)
