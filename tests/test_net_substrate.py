"""NetSubstrate unit tests: substrate-interface conformance, the
write-through JSONL trace, chaos injection, and run-directory plumbing."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.net import NetRunConfig, NetSubstrate
from repro.net.substrate import JsonlTraceWriter
from repro.obs.export import import_jsonl
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.substrate import Substrate


class Echo(Node):
    """Replies ``("echo", x)`` to every ``("ping", x)`` it receives."""

    def __init__(self, site_id):
        super().__init__(site_id)
        self.got = []

    def on_message(self, src, message):
        self.got.append((src, message))
        if isinstance(message, tuple) and message[0] == "ping":
            self.send(src, ("echo", message[1]))


def test_both_substrates_satisfy_the_protocol():
    # The whole point of the split: the simulator and the UDP backend
    # are interchangeable behind one structural interface.
    assert isinstance(Simulator(), Substrate)
    assert isinstance(NetSubstrate(0, NetRunConfig(n_sites=1)), Substrate)


def run_pair(config_kwargs=None, rounds=3):
    """Two Echo nodes on two UDP substrates in one loop; returns them."""
    config = NetRunConfig(n_sites=2, **(config_kwargs or {}))

    async def drive():
        subs = [NetSubstrate(i, config) for i in range(2)]
        nodes = [Echo(i) for i in range(2)]
        for sub, node in zip(subs, nodes):
            sub.add_node(node)
            if config.reliable:
                sub.install_transport(config.reliable_config())
        addresses = {}
        for sub in subs:
            addresses[sub.site_id] = (config.host, await sub.start())
        import time

        for sub in subs:
            sub.configure(addresses, time.time())
        for i in range(rounds):
            nodes[0].send(1, ("ping", i))
        deadline = asyncio.get_running_loop().time() + 10.0
        while len(nodes[0].got) < rounds:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"echo incomplete: {len(nodes[0].got)}/{rounds}"
                )
            await asyncio.sleep(0.005)
        for sub in subs:
            sub.close()
        return subs, nodes

    return asyncio.run(drive())


def test_udp_echo_roundtrip_with_reliable_channels():
    subs, nodes = run_pair(rounds=3)
    assert [m for _, m in nodes[1].got] == [("ping", i) for i in range(3)]
    assert [m for _, m in nodes[0].got] == [("echo", i) for i in range(3)]
    # Protocol accounting: 3 pings + 3 echoes, independent of acks.
    assert subs[0].stats.messages_sent == 3
    assert subs[1].stats.messages_sent == 3


def test_chaos_loss_is_healed_by_the_reliable_layer():
    subs, nodes = run_pair(
        config_kwargs={"loss": 0.3, "chaos_seed": 5}, rounds=5
    )
    dropped = sum(s.stats.chaos_dropped for s in subs)
    retransmitted = sum(
        s.transport.stats.retransmitted for s in subs if s.transport
    )
    assert dropped > 0, "with loss=0.3 over >=20 datagrams, some must drop"
    assert retransmitted >= dropped - 1  # each loss costs a retransmission
    # And yet delivery was exactly-once FIFO:
    assert [m for _, m in nodes[1].got] == [("ping", i) for i in range(5)]


def test_self_send_bypasses_the_wire():
    config = NetRunConfig(n_sites=1)

    async def drive():
        sub = NetSubstrate(0, config)
        node = Echo(0)
        sub.add_node(node)
        await sub.start()
        import time

        sub.configure({}, time.time())
        node.send(0, ("local", 1))
        deadline = asyncio.get_running_loop().time() + 5.0
        while not node.got:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError("self-send never delivered")
            await asyncio.sleep(0.005)
        sub.close()
        return sub, node

    sub, node = asyncio.run(drive())
    assert node.got == [(0, ("local", 1))]
    assert sub.stats.messages_sent == 0, "self-delivery costs no message"
    assert sub.stats.datagrams_sent == 0
    # ... and is traced as deliver-local, like on the simulator.
    assert [r.kind for r in sub.trace] == ["deliver-local"]


def test_jsonl_trace_writer_is_valid_at_every_instant(tmp_path):
    path = tmp_path / "shard.jsonl"
    writer = JsonlTraceWriter(path, meta={"site": 0})
    writer.record(0.5, "request", 0)
    writer.record(1.0, "cs_enter", 0)
    # No close(): the file must already be a complete, parseable trace,
    # because SIGTERM can land at any moment.
    imported = import_jsonl(str(path))
    assert [r.kind for r in imported.records] == ["request", "cs_enter"]
    assert imported.meta == {"site": 0}
    writer.close()
    assert len(writer._records) == 2  # in-memory mirror kept too


def test_malformed_datagram_is_dropped_not_fatal():
    config = NetRunConfig(n_sites=1)
    sub = NetSubstrate(0, config)
    sub.add_node(Echo(0))
    sub.datagram_received(b"not even json")
    sub.datagram_received(json.dumps({"v": 99}).encode())
    assert sub.stats.decode_errors == 2


def test_crashed_node_receives_nothing():
    config = NetRunConfig(n_sites=1)
    sub = NetSubstrate(0, config)
    node = Echo(0)
    sub.add_node(node)
    node.crashed = True
    sub.deliver_protocol(1, 0, ("ping", 1))
    assert node.got == []


def test_duplicate_addition_of_a_site_is_rejected():
    from repro.errors import ConfigurationError

    sub = NetSubstrate(0, NetRunConfig(n_sites=1))
    sub.add_node(Echo(0))
    with pytest.raises(ConfigurationError):
        sub.add_node(Echo(0))


def test_nan_delay_is_refused_not_handed_to_the_loop():
    from repro.errors import ConfigurationError

    async def drive():
        sub = NetSubstrate(0, NetRunConfig(n_sites=1))
        sub.add_node(Echo(0))
        await sub.start()
        try:
            with pytest.raises(ConfigurationError):
                sub.schedule_call(float("nan"), lambda: None)
            sub.schedule_call(-1.0, lambda: None).cancel()  # negative still clamps
        finally:
            sub.close()

    asyncio.run(drive())
