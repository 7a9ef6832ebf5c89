"""Merge per-site trace shards into one monitor-replayable stream.

Each site process writes its own ``repro-trace/1`` shard. The runtime
monitor, though, checks *global* invariants (mutual exclusion across
sites, per-arbiter single grant, quorum consistency), so it needs one
totally-ordered record stream. The merge is a streaming k-way merge
by timestamp (:func:`heapq.merge`), ties going to the lower shard index.

Every shard is non-decreasing in time by construction: the substrate
clock is anchored on ``time.monotonic()`` (see
:attr:`~repro.net.substrate.NetSubstrate.now`), so no wall-clock step
can make a site's later record carry an earlier timestamp. For sorted
inputs the k-way merge yields exactly what a stable sort of the
concatenated shards would: each site's own append order survives ties
(a site's ``cs_enter`` never jumps before the ``deliver`` that caused
it, even when a fast handler runs inside one clock tick).

That ordering is exactly as trustworthy as the clock: with one epoch on
one host it is a linearization of the real execution for any two events
further apart than the clock resolution. The monitor's invariants are
interval-based (CS occupancy, grant/release matching), with durations
of many milliseconds against a microsecond clock, so merge order is a
sound witness — the same argument real distributed tracing systems make
when they merge per-process spans.

Nothing is re-encoded. A shard line is ``encode_record`` of its record,
so the merged file is the shards' own lines, verbatim, in merge order
after a new header. Each line travels with its record: decoded from the
line exactly once, or, when the caller still holds every shard's
records in memory (the in-process launcher's trace writers), taken from
there with no decoding at all. The shards are read line by line; only
the merged records, which the monitor replays, are kept.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.export import (
    SCHEMA,
    TraceFile,
    decode_lines,
    encode_header,
    read_header,
)
from repro.sim.trace import TraceRecord


def _pair_time(pair: Tuple[TraceRecord, str]) -> float:
    return pair[0].time


def merge_records(
    shards: Iterable[Iterable[TraceRecord]],
) -> List[TraceRecord]:
    """Merge time-ordered record iterables into one time-ordered list.

    Ties keep shard order, so for non-decreasing shards this is a stable
    sort of their concatenation.
    """
    return list(heapq.merge(*shards, key=attrgetter("time")))


def _paired(
    lines: Iterator[str], records: Iterable[TraceRecord], label: str
) -> Iterator[Tuple[TraceRecord, str]]:
    """Pair a shard's record lines with its in-memory records, undecoded."""
    records = iter(records)
    count = 0
    for line in lines:
        if not line.strip():
            continue
        rec = next(records, None)
        if rec is None:
            raise ConfigurationError(
                f"{label}: shard has more lines than its {count} in-memory records"
            )
        count += 1
        yield rec, line if line.endswith("\n") else line + "\n"
    if next(records, None) is not None:
        raise ConfigurationError(
            f"{label}: shard has {count} lines but more in-memory records"
        )


def merge_shard_files(
    paths: Sequence[Any],
    out_path: Optional[Any] = None,
    meta: Optional[Dict[str, Any]] = None,
    records: Optional[Sequence[Iterable[TraceRecord]]] = None,
) -> TraceFile:
    """Merge shard files; optionally write the merged stream back out.

    Returns the merged :class:`~repro.obs.export.TraceFile`. The merged
    header starts from the first shard's metadata, records the shard
    count, and applies any ``meta`` overrides on top.

    ``records``, when given, holds each shard's records in file order
    (one iterable per path); lines are then paired with them instead of
    decoded, and a shard whose line count differs from its records' is a
    :class:`ConfigurationError`. A malformed line in a decoded shard
    raises one labelled ``<path>:<line number>``.
    """
    if not paths:
        raise ConfigurationError("no trace shards to merge")
    if records is not None and len(records) != len(paths):
        raise ConfigurationError(
            f"{len(records)} in-memory record lists for {len(paths)} shards"
        )
    with ExitStack() as stack:
        streams = []
        metas = []
        for index, path in enumerate(paths):
            label = str(path)
            lines = iter(stack.enter_context(open(label, "r", encoding="utf-8")))
            metas.append(read_header(lines, label))
            streams.append(
                decode_lines(lines, label)
                if records is None
                else _paired(lines, records[index], label)
            )
        merged_meta: Dict[str, Any] = dict(metas[0])
        merged_meta["merged_shards"] = len(paths)
        if meta:
            merged_meta.update(meta)
        merged: List[TraceRecord] = []
        append = merged.append
        pairs = heapq.merge(*streams, key=_pair_time)
        if out_path is None:
            for rec, _line in pairs:
                append(rec)
        else:
            out = stack.enter_context(open(out_path, "w", encoding="utf-8"))
            write = out.write
            write(encode_header(merged_meta) + "\n")
            for rec, line in pairs:
                append(rec)
                write(line)
    return TraceFile(schema=SCHEMA, meta=merged_meta, records=merged)
