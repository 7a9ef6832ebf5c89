"""The real-network substrate: one protocol site on an asyncio UDP socket.

A :class:`NetSubstrate` is the second implementation of the
:class:`~repro.substrate.Substrate` interface. Where the discrete-event
:class:`~repro.sim.simulator.Simulator` hosts every site and advances a
virtual clock, a ``NetSubstrate`` hosts (normally) *one* site inside one
OS process, reads the wall clock, maps timers onto the asyncio event
loop, and exchanges real datagrams with its peers. Protocol sites, the
reliable-channel layer, the workload drivers, and the trace schema run
unchanged on either substrate — that is the point of the split.

Correspondence with the simulator:

* **Clock** — ``now`` is ``(wall - epoch) / unit`` simulation units. The
  launcher distributes one shared epoch, so timestamps from different
  site processes on the same host are mutually comparable and the merged
  trace sorts into a single coherent history. The wall clock is read
  once, at :meth:`~NetSubstrate.configure`; ``now`` then runs on
  ``time.monotonic()``, so every shard is non-decreasing in time.
* **Timers** — :meth:`schedule_call` maps unit delays onto
  ``loop.call_later``; the returned :class:`asyncio.TimerHandle` has a
  ``cancel()`` and therefore *is* a substrate timer handle.
* **Send path** — :meth:`send` counts one protocol message (matching the
  simulator's per-protocol-message accounting, the figure the paper's
  3–6 messages-per-CS bound is stated over) and routes via the reliable
  transport when installed; :meth:`raw_send` serializes one frame with
  :mod:`repro.net.wire` and writes a datagram. Retransmissions and pure
  acks are datagram overhead, visible in the transport/datagram counters
  but never in ``messages_sent`` — same layering as the paper's costing.
* **Faults** — optional seeded loss/duplication applied where the
  simulated :class:`~repro.sim.network.FaultModel` applies them: on the
  wire, below the reliable layer, which then has to earn the exactly-once
  FIFO contract the protocols assume.
* **Trace** — a :class:`JsonlTraceWriter` mirrors every record to a
  per-site ``repro-trace/1`` shard, write-through and line-buffered so a
  ``SIGTERM``-stopped process loses nothing.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.config import NetRunConfig
from repro.net.wire import decode_frame, encode_frame
from repro.obs.export import encode_header, encode_record
from repro.sim.node import Node
from repro.sim.rng import SeedSequence
from repro.sim.trace import Trace, TraceRecord
from repro.sim.transport import ReliableTransport
from repro.substrate import SiteId, TimerHandle


class JsonlTraceWriter(Trace):
    """A :class:`Trace` that also appends every record to a JSONL shard.

    The shard is a complete ``repro-trace/1`` file (header included) at
    every instant: the file handle is line-buffered and each record is
    written as it happens, so whatever stops the process — a clean exit,
    the launcher's ``SIGTERM``, a crash — the shard on disk is valid up
    to the last event. Records are *also* kept in memory, one per shard
    line and in the same order, so in-process uses (tests, the
    in-process launcher's merge) can read them back without decoding.
    """

    __slots__ = ("_fh",)

    def __init__(self, path, meta: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(enabled=True)
        self._fh = open(path, "w", encoding="utf-8", buffering=1)
        self._fh.write(encode_header(meta) + "\n")

    def record(self, time: float, kind: str, site: int, detail: Any = None) -> None:
        if not self.enabled:
            return
        rec = TraceRecord(time=time, kind=kind, site=site, detail=detail)
        self._records.append(rec)
        self._fh.write(encode_record(rec) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


@dataclass
class NetStats:
    """Counters one site's substrate keeps, reported in its done-file."""

    #: Protocol messages this site paid for (the paper's unit of cost).
    messages_sent: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)
    #: Raw datagrams actually written to the socket.
    datagrams_sent: int = 0
    datagrams_received: int = 0
    #: Datagrams suppressed/duplicated by injected chaos.
    chaos_dropped: int = 0
    chaos_duplicated: int = 0
    #: Inbound datagrams that failed to decode (logged and dropped).
    decode_errors: int = 0


class _UdpProtocol(asyncio.DatagramProtocol):
    """Thin adapter: hands received datagrams to the substrate."""

    def __init__(self, substrate: "NetSubstrate") -> None:
        self._substrate = substrate

    def datagram_received(self, data: bytes, addr) -> None:
        self._substrate.datagram_received(data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        # ICMP errors (peer socket gone) are indistinguishable from loss
        # as far as the protocol stack cares; the reliable layer heals.
        pass


class NetSubstrate:
    """Substrate implementation over one asyncio UDP endpoint.

    Lifecycle: construct → :meth:`add_node` → ``await`` :meth:`start`
    (binds the socket; the port is then readable) → :meth:`configure`
    with the address book and shared epoch → :meth:`start_nodes` →
    exchange traffic → :meth:`close`.
    """

    def __init__(
        self,
        site_id: SiteId,
        config: NetRunConfig,
        trace: Optional[Trace] = None,
    ) -> None:
        self.site_id = site_id
        self.config = config
        self.nodes: Dict[SiteId, Node] = {}
        self.trace: Trace = trace if trace is not None else Trace(enabled=True)
        #: Deterministic streams for protocol-level consumers (same
        #: derivation tree as the simulator's, rooted at the run seed).
        self.seeds = SeedSequence(config.seed)
        self.stats = NetStats()
        self.transport: Optional[ReliableTransport] = None
        self._unit = config.unit
        #: ``time.monotonic()`` at the epoch: :attr:`now` counts from it.
        self._clock_origin = time.monotonic()
        self._addresses: Dict[SiteId, Tuple[str, int]] = {}
        self._endpoint = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None
        # Chaos streams are rooted at chaos_seed and derived per sender
        # site, so every process draws from its own reproducible stream
        # no matter how wall-clock time interleaves them.
        self._chaos_rng = (
            SeedSequence(config.chaos_seed).derive(f"udp-chaos:{site_id}")
            if (config.loss or config.duplicate)
            else None
        )

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Host ``node`` on this substrate (normally exactly one)."""
        if node.site_id in self.nodes:
            raise ConfigurationError(
                f"site {node.site_id} already hosted on this substrate"
            )
        self.nodes[node.site_id] = node
        node.bind(self)
        return node

    def install_transport(self, config=None) -> ReliableTransport:
        """Install the reliable-channel layer (the simulator's, reused)."""
        self.transport = ReliableTransport(self, config)
        return self.transport

    async def start(self) -> int:
        """Bind the UDP socket; returns the chosen port."""
        self._loop = asyncio.get_running_loop()
        transport, _ = await self._loop.create_datagram_endpoint(
            lambda: _UdpProtocol(self), local_addr=(self.config.host, 0)
        )
        self._endpoint = transport
        self.port = self._endpoint.get_extra_info("sockname")[1]
        return self.port

    def configure(
        self, addresses: Dict[SiteId, Tuple[str, int]], epoch_wall: float
    ) -> None:
        """Install the peer address book and the shared clock epoch.

        The epoch is a wall-clock instant, but :attr:`now` reads the
        monotonic clock: the wall clock is read once here to place the
        epoch on it, so ``epoch_wall + now * unit`` is still wall time
        while a later wall-clock step cannot move ``now`` backwards.
        """
        self._addresses = dict(addresses)
        self._clock_origin = time.monotonic() - (time.time() - epoch_wall)

    def start_nodes(self) -> None:
        """Fire every hosted node's ``on_start`` hook."""
        for node in self.nodes.values():
            node.on_start()

    def close(self) -> None:
        """Tear down the socket (idempotent)."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    # -- substrate interface: clock and timers -----------------------------

    @property
    def now(self) -> float:
        """Current time in simulation units since the shared epoch;
        never decreases (monotonic clock, see :meth:`configure`)."""
        return (time.monotonic() - self._clock_origin) / self._unit

    def schedule_call(
        self,
        delay: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` units (wall-clock mapped)."""
        if self._loop is None:
            raise ConfigurationError(
                "substrate not started: schedule_call before start()"
            )
        if delay != delay:  # NaN: max(nan, 0.0) is nan, not a clamp
            raise ConfigurationError("cannot schedule a NaN delay")
        return self._loop.call_later(max(delay, 0.0) * self._unit, fn, *args)

    # -- substrate interface: messaging ------------------------------------

    def send(
        self,
        src: SiteId,
        dst: SiteId,
        message: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Accept one protocol message from a hosted node.

        Counted here, at the protocol layer — one count per message the
        algorithm pays for, a piggyback bundle counted once under its
        combined name — which is the same accounting the simulator's
        network applies and the figure messages-per-CS is computed over.
        """
        self.stats.messages_sent += 1
        by_type = self.stats.by_type
        by_type[type_name] = by_type.get(type_name, 0) + 1
        transport = self.transport
        if transport is not None:
            transport.send(src, dst, message, type_name, piggybacked)
            return
        self.raw_send(src, dst, message, type_name, piggybacked)

    def raw_send(
        self,
        src: SiteId,
        dst: SiteId,
        frame: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Write one frame to the wire (the transport's down-call).

        Injected chaos happens here — below the reliable layer, exactly
        where the simulated ``FaultModel`` drops and duplicates — so the
        transport has to *earn* the FIFO exactly-once contract on the
        real network too.
        """
        addr = self._addresses.get(dst)
        if addr is None:
            raise ConfigurationError(
                f"site {dst} has no known address (address book incomplete)"
            )
        data = encode_frame(src, dst, frame, type_name)
        copies = 1
        rng = self._chaos_rng
        if rng is not None:
            if rng.random() < self.config.loss:
                self.stats.chaos_dropped += 1
                copies = 0
            elif rng.random() < self.config.duplicate:
                self.stats.chaos_duplicated += 1
                copies = 2
        if self._endpoint is None:
            raise ConfigurationError("substrate not started: raw_send on a closed socket")
        for _ in range(copies):
            self._endpoint.sendto(data, addr)
            self.stats.datagrams_sent += 1

    def datagram_received(self, data: bytes) -> None:
        """Inbound datagram: decode, gate, and hand up the stack."""
        self.stats.datagrams_received += 1
        try:
            src, dst, frame, _type_name = decode_frame(data)
        except ConfigurationError:
            self.stats.decode_errors += 1
            return
        node = self.nodes.get(dst)
        if node is None:
            # Misaddressed (stray traffic on a reused port): drop.
            self.stats.decode_errors += 1
            return
        if node.crashed:
            return
        transport = self.transport
        if transport is not None:
            transport.on_network_deliver(src, dst, frame)
            return
        self.deliver_protocol(src, dst, frame)

    def deliver_protocol(self, src: SiteId, dst: SiteId, message: Any) -> None:
        """Deliver an unwrapped protocol message (transport layer exit)."""
        node = self.nodes[dst]
        if node.crashed:
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self.now, "deliver", dst, message)
        node.on_message(src, message)

    def deliver_local(self, site: SiteId, message: Any) -> None:
        """Deliver a self-addressed message (no network, no cost)."""
        node = self.nodes[site]
        if node.crashed:
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self.now, "deliver-local", site, message)
        node.on_message(site, message)

    # -- failure injection -------------------------------------------------

    def crash(self, site: SiteId) -> None:
        """Fail-stop a hosted ``site`` (mirrors ``Simulator.crash``)."""
        node = self.nodes[site]
        if node.crashed:
            return
        node.crashed = True
        if self.transport is not None:
            self.transport.reset_site(site)
        self.trace.record(self.now, "crash", site)
        node.on_crash()

    def recover(self, site: SiteId) -> None:
        """Bring a crashed hosted ``site`` back."""
        node = self.nodes[site]
        if not node.crashed:
            return
        node.crashed = False
        self.trace.record(self.now, "recover", site)
        node.on_recover()

    # -- substrate interface: misc ----------------------------------------

    def is_crashed(self, site: SiteId) -> bool:
        """Local liveness only: a remote site's health is unknowable here
        (that is what failure detectors are for), so non-hosted sites
        report not-crashed."""
        node = self.nodes.get(site)
        return node.crashed if node is not None else False

    def rng(self, name: str):
        """Named deterministic RNG stream derived from the run seed."""
        return self.seeds.derive(name)

    # -- quiescence --------------------------------------------------------

    def idle(self) -> bool:
        """True when every hosted node is drained and no channel this
        substrate sends on still has unacked traffic in flight."""
        for node in self.nodes.values():
            if getattr(node, "has_work", False):
                return False
        if self.transport is not None and self.transport.unacked_counts():
            return False
        return True
