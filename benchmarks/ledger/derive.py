"""From one traced rep's facts and span tables to per-layer metrics.

Counts come from the public stats surfaces the rep read (and, for
message types under a transport, from the boundary counter on
``ReliableTransport.send``); ``*_us_*`` and ``*_share`` figures come
from the span tables. An idle layer reports 0, which is itself the
prediction the README's table makes for that workload.
"""

from __future__ import annotations

from typing import Any, Dict

from spans import RUN_LAYERS, TRACER, layer_of, layer_shares

MESSAGE_TYPES = (
    "request", "reply", "release", "transfer", "fail", "inquire", "yield",
    "piggybacked",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum_where(table: Dict[str, float], prefix: str) -> float:
    return sum(value for name, value in table.items() if name.startswith(prefix))


def from_counts(facts: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics whose source is ``counts``."""
    ops = facts["ops"]
    msgs = facts["protocol_msgs"]
    transport = facts.get("transport", {})
    locks = facts.get("locks", {})
    net = facts.get("net", {})
    # The paper's c: messages per quorum round over the quorum size K.
    # On the mutex workloads a round is an op; the lock service serves
    # several ops per round.
    rounds = locks.get("quorum_rounds", ops)
    data = transport.get("data_sent", 0)
    acks = transport.get("acks_sent", 0)
    piggybacked_acks = transport.get("acks_piggybacked", 0)
    deduped = transport.get("deduped", 0)
    out = {
        "sim.events_per_op": _ratio(facts["events"], ops),
        "sim.datagrams_per_op": _ratio(facts["network_sends"], ops),
        "core.sync_delay_T": facts["sync_delay_T"],
        "core.complexity_c": _ratio(_ratio(msgs, rounds), facts["mean_quorum_size"]),
        "transport.retransmit_ratio": _ratio(transport.get("retransmitted", 0), data),
        "transport.acks_per_data": _ratio(acks, data),
        "transport.piggyback_ratio": _ratio(piggybacked_acks, piggybacked_acks + acks),
        "transport.dedupe_ratio": _ratio(
            deduped, transport.get("delivered", 0) + deduped
        ),
        "transport.give_ups": transport.get("give_ups", 0),
        "locks.lease_hit_rate": _ratio(locks.get("lease_hits", 0), ops),
        "locks.ops_per_round": _ratio(ops, locks.get("quorum_rounds", 0)),
        "locks.quorum_rounds_per_op": _ratio(locks.get("quorum_rounds", 0), ops),
        "locks.coalesced_batches_per_op": _ratio(
            locks.get("coalesced_batches", 0), ops
        ),
        "locks.hotspot_factor": locks.get("hotspot_factor", 0.0),
        "locks.retries_per_op": _ratio(locks.get("retries", 0), ops),
        "locks.failovers": locks.get("failovers", 0),
        "locks.orphaned": locks.get("orphaned", 0),
        "locks.duplicate_drops": locks.get("duplicate_drops", 0),
        "locks.availability": locks.get("availability", 0.0),
        "net.datagrams_per_op": _ratio(net.get("datagrams_sent", 0), ops),
        "net.decode_errors": net.get("decode_errors", 0),
    }
    by_type = facts["by_type"]
    for kind in MESSAGE_TYPES:
        out[f"core.msgs_per_op.{kind}"] = _ratio(by_type.get(kind, 0), ops)
    return out


def from_spans(facts: Dict[str, Any], spans: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics whose source is ``spans``.

    ``spans`` holds the traced rep's tables: ``window_*`` restricted to
    the run window, ``rep_*`` over the whole rep (set-up and verification
    included).
    """
    ops = facts["ops"]
    window = spans["window_s"]
    self_w, calls_w = spans["window_self"], spans["window_calls"]
    self_r, total_r, calls_r = spans["rep_self"], spans["rep_total"], spans["rep_calls"]
    shares = layer_shares(self_w, window, spans["window_tracer_s"])

    handler_self = handler_calls = 0.0
    for name, seconds in self_w.items():
        if name.endswith(".on_message") and layer_of(name) == "core":
            handler_self += seconds
            handler_calls += calls_w.get(name, 0)
    transport_self = sum(
        seconds for name, seconds in self_w.items() if layer_of(name) == "transport"
    )
    net = facts.get("net", {})
    checks = (
        _sum_where(total_r, "verify.")
        + total_r.get("locks.service.LockService.verify", 0.0)
        + total_r.get("obs.monitor.ProtocolMonitor.replay", 0.0)
    )
    record = "net.substrate.JsonlTraceWriter.record"
    out = {
        "sim.heap_pushes_per_op": _ratio(
            calls_w.get("sim.event.EventQueue.push", 0), ops
        ),
        "sim.loop_self_us_per_event": 1e6 * _ratio(
            self_w.get("sim.simulator.Simulator.run", 0.0), facts["events"]
        ),
        "sim.network_send_us_per_msg": 1e6 * _ratio(
            self_w.get("sim.network.Network.send", 0.0)
            + self_w.get("sim.network.Network.send_many", 0.0),
            facts["network_sends"],
        ),
        "core.handler_us_per_msg": 1e6 * _ratio(handler_self, handler_calls),
        "transport.us_per_data_msg": 1e6 * _ratio(
            transport_self, facts.get("transport", {}).get("data_sent", 0)
        ),
        "locks.acquire_us_per_op": 1e6 * _ratio(
            _sum_where(self_w, "locks.service."), ops
        ),
        "locks.frontend_us_per_op": 1e6 * _ratio(
            _sum_where(self_w, "locks.frontend."), ops
        ),
        "net.send_us_per_datagram": 1e6 * _ratio(
            self_w.get("net.substrate.NetSubstrate.raw_send", 0.0)
            + self_w.get("net.wire.encode_frame", 0.0),
            net.get("datagrams_sent", 0),
        ),
        "net.recv_us_per_datagram": 1e6 * _ratio(
            self_w.get("net.substrate.NetSubstrate.datagram_received", 0.0)
            + self_w.get("net.wire.decode_frame", 0.0),
            net.get("datagrams_received", 0),
        ),
        "net.trace_write_us_per_record": 1e6 * _ratio(
            self_r.get(record, 0.0), calls_r.get(record, 0)
        ),
        # Meaningful on UDP only: the simulator never waits for anything.
        "net.loop_idle_share": (
            max(0.0, 1.0 - _ratio(spans["window_cpu_s"], window))
            if "net" in facts else 0.0
        ),
        "net.merge_records_per_s": _ratio(
            net.get("trace_records", 0),
            total_r.get("net.merge.merge_shard_files", 0.0),
        ),
        "verify.checks_us_per_op": 1e6 * _ratio(checks, ops),
        "metrics.summarize_s": total_r.get("metrics.summary.summarize", 0.0),
    }
    for layer in RUN_LAYERS + (TRACER,):
        out[f"{layer}.self_share"] = shares[layer]
    return out
