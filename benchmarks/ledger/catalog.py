"""The metric catalogue: one table per kind, and ``BENCHMARK.json`` from it.

``BENCHMARK.json`` at the repo root may hold only names, units,
directions and bounds, so everything else a reader needs — what each
per-layer metric is expected to move and where, and which figures a
simulated run must reproduce exactly — lives here, and
``tests/test_catalog.py`` checks the two never drift apart.
Regenerate the file with ``python3 benchmarks/ledger/catalog.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

from workloads import WORKLOADS

#: How long one driver run measures; also ``run.py``'s default.
RUN_SECONDS = 14


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    meaning: str
    #: On simulated workloads the value is a model output: any two runs
    #: of one seed must agree to the last digit.
    exact_on_sim: bool = False


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "child start to run loop start: importing the program, quorum build "
        "and validation, sites/service/sockets, arrival schedule",
    ),
    EndToEnd(
        "ops_per_s", "ops/s", "higher", 0.15,
        "ops served per wall second of the run phase (an op is one CS entry "
        "on mutex_*, one granted acquire on locks_*)",
    ),
    EndToEnd(
        "verify_s", "s", "lower", 0.25,
        "run loop end to verified summary returned: invariant checkers, "
        "service.verify(), shard merge and monitor replay",
    ),
    EndToEnd(
        "wait_p50", "T", "lower", 0.10,
        "request to grant, median over the pooled samples of all timed reps",
        exact_on_sim=True,
    ),
    EndToEnd(
        "wait_p99", "T", "lower", 0.25,
        "request to grant, 99th percentile over the pooled samples "
        "(at least ten samples lie beyond it)",
        exact_on_sim=True,
    ),
    EndToEnd(
        "msgs_per_op", "count", "lower", 0.05,
        "protocol messages per op, acks and retransmissions excluded: the "
        "paper's c*K",
        exact_on_sim=True,
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "ru_maxrss of the child process that ran one rep",
    ),
)

#: Reported in the ledger and judged by compare.py, but kept out of
#: ``BENCHMARK.json``: it is 0 on a healthy run, which that file's
#: contract does not allow for a bounded metric. The driver sees the
#: same information as ``failed`` out of ``attempted``.
FAILED_OP_SHARE = EndToEnd(
    "failed_op_share", "ratio", "lower", 0.0,
    "(submitted - completed) / submitted: unserved, crash-orphaned and aborted ops",
    exact_on_sim=True,
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` this metric should move.
    moves: Tuple[str, str]
    #: Where the number comes from: ``counts`` (public stats surfaces and
    #: boundary counters), ``spans`` (the traced rep), ``rung`` (rungs.py)
    #: or ``runs`` (traced against untraced reps).
    source: str


def _L(name: str, unit: str, better: str, e2e: str, workload: str, source: str) -> PerLayer:
    return PerLayer(name, unit, better, (e2e, workload), source)


PER_LAYER = (
    # sim: event queue, run loop, network model. No move expected on UDP.
    _L("sim.events_per_op", "count", "lower", "ops_per_s", "mutex_sim_heavy", "counts"),
    _L("sim.events_per_s", "1/s", "higher", "ops_per_s", "mutex_sim_heavy", "runs"),
    _L("sim.heap_pushes_per_op", "count", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("sim.datagrams_per_op", "count", "lower", "ops_per_s", "mutex_sim_lossy", "counts"),
    _L("sim.loop_self_us_per_event", "us", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("sim.network_send_us_per_msg", "us", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("sim.self_share", "ratio", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("sim.rung_timer_events_per_s", "1/s", "higher", "ops_per_s", "mutex_sim_heavy", "rung"),
    _L("sim.rung_network_events_per_s", "1/s", "higher", "ops_per_s", "mutex_sim_heavy", "rung"),
    # core: the Cao-Singhal site and the mutex lifecycle under it.
    _L("core.handler_us_per_msg", "us", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("core.self_share", "ratio", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("core.sync_delay_T", "T", "lower", "wait_p50", "mutex_sim_heavy", "counts"),
    _L("core.complexity_c", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.request", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.reply", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.release", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.transfer", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.fail", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.inquire", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.yield", "count", "lower", "msgs_per_op", "mutex_sim_heavy", "counts"),
    _L("core.msgs_per_op.piggybacked", "count", "higher", "msgs_per_op", "mutex_sim_heavy", "counts"),
    # transport: idle (all zero) where no transport is installed.
    _L("transport.us_per_data_msg", "us", "lower", "ops_per_s", "mutex_sim_lossy", "spans"),
    _L("transport.self_share", "ratio", "lower", "ops_per_s", "mutex_sim_lossy", "spans"),
    _L("transport.retransmit_ratio", "ratio", "lower", "wait_p99", "mutex_sim_lossy", "counts"),
    _L("transport.acks_per_data", "ratio", "lower", "ops_per_s", "mutex_sim_lossy", "counts"),
    _L("transport.piggyback_ratio", "ratio", "higher", "ops_per_s", "mutex_sim_lossy", "counts"),
    _L("transport.dedupe_ratio", "ratio", "lower", "ops_per_s", "mutex_sim_lossy", "counts"),
    _L("transport.give_ups", "count", "lower", "wait_p99", "locks_sim_crash", "counts"),
    # locks: router, front end, service; must not worsen locks_sim_cold.
    _L("locks.acquire_us_per_op", "us", "lower", "ops_per_s", "locks_sim_cold", "spans"),
    _L("locks.frontend_us_per_op", "us", "lower", "ops_per_s", "locks_sim_hot", "spans"),
    _L("locks.self_share", "ratio", "lower", "ops_per_s", "locks_sim_hot", "spans"),
    _L("locks.lease_hit_rate", "ratio", "higher", "msgs_per_op", "locks_sim_hot", "counts"),
    _L("locks.ops_per_round", "count", "higher", "msgs_per_op", "locks_sim_hot", "counts"),
    _L("locks.quorum_rounds_per_op", "count", "lower", "msgs_per_op", "locks_sim_hot", "counts"),
    _L("locks.coalesced_batches_per_op", "count", "higher", "wait_p50", "locks_sim_hot", "counts"),
    _L("locks.hotspot_factor", "ratio", "lower", "wait_p99", "locks_sim_hot", "counts"),
    _L("locks.retries_per_op", "count", "lower", "wait_p99", "locks_sim_crash", "counts"),
    _L("locks.failovers", "count", "lower", "wait_p99", "locks_sim_crash", "counts"),
    _L("locks.orphaned", "count", "lower", "wait_p99", "locks_sim_crash", "counts"),
    _L("locks.duplicate_drops", "count", "lower", "wait_p99", "locks_sim_crash", "counts"),
    _L("locks.availability", "ratio", "higher", "wait_p99", "locks_sim_crash", "counts"),
    _L("locks.router_us_per_key", "us", "lower", "ops_per_s", "locks_sim_cold", "rung"),
    # net: UDP substrate, wire codec, trace shards, shard merge.
    _L("net.wire_encode_us", "us", "lower", "ops_per_s", "mutex_udp_inproc", "rung"),
    _L("net.wire_decode_us", "us", "lower", "ops_per_s", "mutex_udp_inproc", "rung"),
    _L("net.send_us_per_datagram", "us", "lower", "ops_per_s", "mutex_udp_inproc", "spans"),
    _L("net.recv_us_per_datagram", "us", "lower", "ops_per_s", "mutex_udp_inproc", "spans"),
    _L("net.trace_write_us_per_record", "us", "lower", "ops_per_s", "mutex_udp_inproc", "spans"),
    _L("net.self_share", "ratio", "lower", "ops_per_s", "mutex_udp_inproc", "spans"),
    _L("net.datagrams_per_op", "count", "lower", "ops_per_s", "mutex_udp_inproc", "counts"),
    _L("net.decode_errors", "count", "lower", "wait_p99", "mutex_udp_inproc", "counts"),
    _L("net.loop_idle_share", "ratio", "lower", "wait_p50", "mutex_udp_inproc", "spans"),
    _L("net.merge_records_per_s", "1/s", "higher", "verify_s", "mutex_udp_inproc", "spans"),
    # obs: trace export/import and the monitor.
    _L("obs.self_share", "ratio", "lower", "ops_per_s", "mutex_udp_inproc", "spans"),
    _L("obs.monitor_replay_records_per_s", "1/s", "higher", "verify_s", "mutex_udp_inproc", "rung"),
    _L("obs.export_records_per_s", "1/s", "higher", "verify_s", "mutex_udp_inproc", "rung"),
    _L("obs.import_records_per_s", "1/s", "higher", "verify_s", "mutex_udp_inproc", "rung"),
    _L("obs.trace_on_overhead_share", "ratio", "lower", "ops_per_s", "mutex_sim_heavy", "rung"),
    # verify + metrics: post-run checkers and the summary.
    _L("verify.checks_us_per_op", "us", "lower", "verify_s", "mutex_sim_heavy", "spans"),
    _L("metrics.summarize_s", "s", "lower", "verify_s", "mutex_sim_heavy", "spans"),
    _L("metrics.self_share", "ratio", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    # quorums + workload: set-up only.
    _L("quorums.build_validate_s", "s", "lower", "setup_s", "mutex_sim_heavy", "rung"),
    _L("workload.population_s", "s", "lower", "setup_s", "locks_sim_hot", "rung"),
    # what no span covers (asyncio loop, selector, idle) and the cost of looking.
    _L("runtime.self_share", "ratio", "lower", "ops_per_s", "mutex_udp_inproc", "spans"),
    _L("tracer.self_share", "ratio", "lower", "ops_per_s", "mutex_sim_heavy", "spans"),
    _L("trace_overhead_share", "ratio", "lower", "ops_per_s", "mutex_sim_heavy", "runs"),
)


def benchmark_json() -> Dict[str, Any]:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
