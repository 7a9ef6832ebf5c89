"""Perf-trend helper for the CI bench matrix.

One subcommand, operating on the ``BENCH_*.json`` artifacts the
benchmark suite archives under ``benchmarks/results/`` (regressions are
gated by ``repro.cli regress``, not here):

``append``
    Extract every throughput metric (any ``events_per_sec`` /
    ``states_per_sec`` key, at any nesting depth) from one result file
    and append a single JSONL record — bench name, commit, timestamp,
    metrics — to a history file. CI uploads the file as the
    ``bench-history`` artifact, so each workflow run contributes one
    downloadable line per bench and a plot is one ``jq`` away.

Usage (from the repo root)::

    python benchmarks/trend.py append --bench kernel \
        --result benchmarks/results/BENCH_sim_kernel.json \
        --out bench-history.jsonl --sha "$GITHUB_SHA"
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Dict

#: JSON keys treated as throughput metrics (higher is better).
THROUGHPUT_KEYS = ("events_per_sec", "states_per_sec")


def extract_throughput(payload: object, prefix: str = "") -> Dict[str, float]:
    """Collect every throughput metric in ``payload``, keyed by JSON path.

    Nested dicts contribute dotted paths (``throughput.states_per_sec``),
    so one result file can carry several independent throughput numbers.
    """
    out: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if key in THROUGHPUT_KEYS and isinstance(value, (int, float)):
                out[path] = float(value)
            else:
                out.update(extract_throughput(value, path))
    return out


def cmd_append(args: argparse.Namespace) -> int:
    payload = json.loads(pathlib.Path(args.result).read_text())
    record = {
        "bench": args.bench,
        "sha": args.sha or None,
        "timestamp": int(time.time()),
        "metrics": extract_throughput(payload),
    }
    out = pathlib.Path(args.out)
    with out.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {args.bench} trend record to {out}: {record['metrics']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    append_p = sub.add_parser("append", help="append a trend record")
    append_p.add_argument("--bench", required=True)
    append_p.add_argument("--result", required=True)
    append_p.add_argument("--out", default="bench-history.jsonl")
    append_p.add_argument("--sha", default="")
    append_p.set_defaults(fn=cmd_append)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
