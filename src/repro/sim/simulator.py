"""The discrete-event simulator tying clock, network, and nodes together.

Usage sketch::

    sim = Simulator(seed=7, delay_model=ConstantDelay(1.0))
    for i in range(N):
        sim.add_node(MySite(i, ...))
    sim.start()
    sim.run(until=10_000)

The simulator is deliberately small: it owns the clock and the event queue,
delegates transport to :class:`repro.sim.network.Network`, and dispatches
deliveries to :meth:`repro.sim.node.Node.on_message`. Determinism comes
from the seeded RNG streams and the stable event tie-break; two simulators
built with the same seed and the same construction order replay the exact
same history.

Scheduling goes through one kernel API, :meth:`Simulator.schedule_call`:
callbacks are stored as ``(fn, args)`` pairs so the hot path (one network
delivery per message) allocates a single slotted event instead of a
closure per send. :meth:`Simulator.schedule` remains as the zero-argument
convenience wrapper; :meth:`Simulator.schedule_at` takes an absolute time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.sim.event import Event, EventQueue
from repro.sim.network import DelayModel, FaultModel, Network, UniformDelay
from repro.sim.node import Node
from repro.sim.rng import SeedSequence
from repro.sim.trace import NullTrace, Trace
from repro.sim.transport import ReliableConfig, ReliableTransport

SiteId = int


class Simulator:
    """Deterministic discrete-event simulator for message-passing systems."""

    __slots__ = (
        "seeds",
        "_queue",
        "_now",
        "_started",
        "nodes",
        "trace",
        "network",
        "transport",
        "events_processed",
        "last_event_time",
    )

    def __init__(
        self,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        trace: Union[bool, Trace] = False,
        trace_capacity: Optional[int] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> None:
        self.seeds = SeedSequence(seed)
        self._queue = EventQueue()
        self._now = 0.0
        self._started = False
        self.nodes: Dict[SiteId, Node] = {}
        #: ``trace`` may be a bool (build a Trace/NullTrace) or a ready
        #: Trace instance — Trace and NullTrace are swappable here and the
        #: call sites (``sim.trace.record(...)``) never need to know.
        if isinstance(trace, Trace):
            self.trace = trace
        elif trace:
            self.trace = Trace(enabled=True, capacity=trace_capacity)
        else:
            self.trace = NullTrace()
        # Fault decisions get their own stream (named by chaos_seed so the
        # same run seed can replay under a different fault pattern);
        # deriving it only when faults are on leaves every fault-free run's
        # RNG usage untouched.
        # The network schedules deliveries straight onto the event queue:
        # ``deliver_at`` is always >= now (positive delays, and the FIFO
        # floor only pushes times later), so no past-check is needed.
        self.network = Network(
            delay_model=delay_model or UniformDelay(0.5, 1.5),
            rng=self.seeds.derive("network"),
            schedule=self._queue.push,
            now=lambda: self._now,
            deliver=self._deliver_event,
            fault_model=fault_model,
            fault_rng=(
                self.seeds.derive(f"faults#{fault_model.chaos_seed}")
                if fault_model is not None
                else None
            ),
        )
        #: Optional reliable-channel layer (see :meth:`install_transport`);
        #: ``None`` means nodes talk straight to the raw network.
        self.transport: Optional[ReliableTransport] = None
        #: Number of events processed so far (cheap progress/health metric).
        self.events_processed = 0
        #: Time of the most recently processed event. Unlike :attr:`now`,
        #: this never jumps to ``run(until=...)``'s bound, so it measures
        #: when simulated *activity* ended (the duration the metrics layer
        #: normalizes by).
        self.last_event_time = 0.0

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node``; its ``site_id`` must be unique."""
        if node.site_id in self.nodes:
            raise SimulationError(f"duplicate site id {node.site_id}")
        if self._started:
            raise SimulationError("cannot add nodes after start()")
        node.bind(self)
        self.nodes[node.site_id] = node
        return node

    def install_transport(self, config=None):
        """Layer reliable channels between nodes and the raw network.

        Every subsequent :meth:`Node.send` routes through a
        :class:`~repro.sim.transport.ReliableTransport` (sequence numbers,
        cumulative acks, retransmission, dedup/reorder buffering) which
        re-presents exactly-once FIFO delivery to ``on_message``. Call
        before :meth:`start`. Returns the transport for give-up wiring.
        """
        if self._started:
            raise SimulationError("cannot install a transport after start()")
        if self.transport is not None:
            raise SimulationError("a transport is already installed")
        self.transport = ReliableTransport(self, config or ReliableConfig())
        return self.transport

    def start(self) -> None:
        """Invoke every node's ``on_start`` hook. Idempotent."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.on_start()

    # -- clock & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule zero-argument ``action`` to run ``delay`` units from now.

        Convenience wrapper over :meth:`schedule_call` for closures and
        bound methods that need no arguments.
        """
        return self.schedule_call(delay, action, (), label)

    def schedule_call(
        self,
        delay: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        This is the kernel scheduling API: binding arguments in the event
        instead of a closure keeps per-event allocation to one slotted
        object. Returns the :class:`Event` handle, which supports
        ``cancel()``.
        """
        if not delay >= 0:  # also refuses NaN, which would poison the clock
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, fn, args, label)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` — exactly that float,
        which ``now + (time - now)`` through :meth:`schedule_call` is not."""
        if not time >= self._now:
            raise SimulationError(f"cannot schedule into the past (time={time})")
        return self._queue.push(time, fn, args, label)

    # -- substrate send path ---------------------------------------------------

    def send(
        self,
        src: SiteId,
        dst: SiteId,
        message: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Accept one protocol message from a node (substrate interface).

        Routes through the reliable-channel transport when one is
        installed, else straight to the raw network, so nodes depend only
        on the substrate interface.
        """
        transport = self.transport
        if transport is not None:
            transport.send(src, dst, message, type_name, piggybacked)
            return
        self.network.send(src, dst, message, type_name, piggybacked, self._now)

    def raw_send(
        self,
        src: SiteId,
        dst: SiteId,
        frame: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Put one frame on the modelled network, bypassing the transport
        (the reliable-channel layer's down-call)."""
        self.network.send(src, dst, frame, type_name, piggybacked, self._now)

    def is_crashed(self, site: SiteId) -> bool:
        """True if hosted ``site`` is currently crashed (substrate API)."""
        return self.nodes[site].crashed

    def rng(self, name: str) -> Any:
        """Named deterministic RNG stream derived from the run seed."""
        return self.seeds.derive(name)

    # -- delivery ------------------------------------------------------------

    def _deliver_event(
        self,
        src: SiteId,
        dst: SiteId,
        payload: Any,
        latency: float,
        inc: int = 0,
    ) -> None:
        """Deliver one due message; the callback :meth:`Network.send` schedules.

        Network-level drops come first (crashed endpoint, a sender that
        crashed since the send — fail-stop, even if it has recovered —
        severed link), then the delivered/latency accounting, then the
        node-level dispatch: through the transport when one is installed
        (raw frames are transport segments; it unwraps, dedups, re-orders
        and hands protocol payloads back via :meth:`deliver_protocol`),
        else traced and handed to the node.
        """
        network = self.network
        stats = network.stats
        if network._crashed and (dst in network._crashed or src in network._crashed):
            stats.messages_dropped += 1
            return
        if network._incarnation and inc != network._incarnation.get(src, 0):
            stats.messages_dropped += 1
            return
        if network._severed and (src, dst) in network._severed:
            stats.messages_dropped += 1
            return
        stats.messages_delivered += 1
        stats.total_latency += latency
        node = self.nodes.get(dst)
        if node is None:
            raise SimulationError(f"message addressed to unknown site {dst}")
        if node.crashed:
            stats.messages_dropped += 1
            return
        transport = self.transport
        if transport is not None:
            transport.on_network_deliver(src, dst, payload)
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self._now, "deliver", dst, payload)
        node.on_message(src, payload)

    def deliver_protocol(self, src: SiteId, dst: SiteId, message: Any) -> None:
        """Deliver an unwrapped protocol message (transport layer exit)."""
        node = self.nodes[dst]
        if node.crashed:
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self._now, "deliver", dst, message)
        node.on_message(src, message)

    def deliver_local(self, site: SiteId, message: Any) -> None:
        """Deliver a self-addressed message (no network, no message cost)."""
        node = self.nodes[site]
        if node.crashed:
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self._now, "deliver-local", site, message)
        node.on_message(site, message)

    # -- failure injection -----------------------------------------------------

    def crash(self, site: SiteId) -> None:
        """Fail-stop ``site``: drop its traffic and silence its timers."""
        node = self.nodes[site]
        if node.crashed:
            return
        node.crashed = True
        self.network.crash(site)
        if self.transport is not None:
            # Fail-stop: channel state touching the site is lost, and
            # retransmission must never resurrect its in-flight traffic.
            self.transport.reset_site(site)
        self.trace.record(self._now, "crash", site)
        node.on_crash()

    def recover(self, site: SiteId) -> None:
        """Bring a crashed ``site`` back (crash-recovery model)."""
        node = self.nodes[site]
        if not node.crashed:
            return
        node.crashed = False
        self.network.recover(site)
        self.trace.record(self._now, "recover", site)
        node.on_recover()

    # -- main loop -------------------------------------------------------------

    def step(self) -> bool:
        """Process one event. Returns False when the queue is empty."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        observer: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` further events have been processed.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        Events fire one at a time in ``(time, seq)`` order, so an event
        scheduled at the current instant from inside a callback fires
        after everything already queued for that instant.

        ``observer(label, elapsed_seconds)``, when given, is called once
        per processed event with the event's schedule label and its
        wall-clock callback duration — the hook the opt-in profiler in
        :mod:`repro.obs.profile` aggregates. The event history is the
        same with or without it.

        Clock semantics: when ``until`` is given and the loop stops because
        the queue drained *or* the next event lies beyond ``until``, the
        clock advances to ``until`` (both stop paths behave identically, so
        ``sim.now`` always equals ``until`` afterwards). When the loop
        stops because ``max_events`` ran out, the clock stays at the last
        processed event — the run is mid-flight, not "caught up to"
        ``until``. If a callback raises, every event not yet fired is
        still queued and the counters include the raising event.
        """
        pop_due = self._queue.pop_due
        # -1 never equals the processed count, i.e. no budget.
        budget = -1 if max_events is None else max(max_events, 0)
        processed = 0
        caught_up = True
        try:
            while True:
                if processed == budget:
                    # Budget ran out mid-flight: clock stays put.
                    caught_up = False
                    break
                event = pop_due(until)
                if event is None:
                    break
                self._now = event.time
                processed += 1
                if observer is None:
                    event.fn(*event.args)
                else:
                    start = perf_counter()
                    event.fn(*event.args)
                    observer(event.label, perf_counter() - start)
        finally:
            # Keep the counters truthful even when a callback raises; at
            # this point _now is still the last processed event's time.
            self.events_processed += processed
            if processed:
                self.last_event_time = self._now
        if caught_up and until is not None and until > self._now:
            self._now = until

    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)
