"""Spans at the layer boundaries, recorded from outside the program.

Nothing under ``src/`` knows about this file. :func:`install` replaces
the layer-boundary callables (class attributes and the module globals
that hold imported functions) with timing wrappers *before* a run is
built, so every bound method the run captures is already a wrapper.

A span's name is ``<module below repro>.<qualname>`` of the wrapped
callable and its layer follows from that name alone (:func:`layer_of`):
the package, with ``sim/transport.py`` counted as the ``transport``
layer. Event callbacks need no name list: the wrapper around
``EventQueue.push`` (and ``NetSubstrate.schedule_call`` on UDP) swaps
each scheduled callback for a trampoline named after the function that
was scheduled, so a timer of a private method is attributed to its own
module and a later rename cannot silently move time to another layer.

Accounting rule (choosing-metrics §4): every wrapper pushes a child-time
cell on a nesting stack; on exit the span's duration is added to its
parent's cell and ``duration - children`` to its own *self time*, so
the self times of all spans inside a root span sum to the root's
duration exactly. The *run window* is bracketed by two :meth:`Recorder.
mark` snapshots — around ``Simulator.run`` on the simulator, at the
first ``request`` and last ``cs_exit`` trace record on UDP — and
run-phase shares are differences between them, so set-up and
verification spans are timed but never leak into run-phase shares.

One op in :data:`SAMPLE_EVERY` keeps full ``{name, start, end, parent,
op_id}`` spans for its whole call tree, in memory, for the trace file.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Keep full spans for one op in this many.
SAMPLE_EVERY = 256

#: First name segment -> layer. ``mutex``/``ft``/``common`` carry the
#: site lifecycle and recovery protocol the ``core`` site is built on.
_PACKAGE_LAYER = {
    "sim": "sim",
    "core": "core",
    "mutex": "core",
    "ft": "core",
    "common": "core",
    "locks": "locks",
    "net": "net",
    "obs": "obs",
    "verify": "verify",
    "metrics": "metrics",
    "workload": "workload",
    "quorums": "quorums",
}

#: Layers reported as run-phase shares. ``runtime`` is what no span
#: covers: the asyncio loop, selector and idle time on UDP (about zero
#: on the simulator, where the run loop is itself the root span).
RUN_LAYERS = ("sim", "transport", "core", "locks", "net", "obs", "metrics", "runtime")

#: The wrappers' own cost, estimated by :func:`calibrate` and kept out of
#: every layer's self time.
TRACER = "tracer"


def layer_of(name: str) -> str:
    """Layer that owns span ``name`` (see module docstring)."""
    if name.startswith("sim.transport."):
        return "transport"
    return _PACKAGE_LAYER.get(name.split(".", 1)[0], "runtime")


def span_name(fn: Any) -> str:
    """``<module below repro>.<qualname>`` of a function or bound method."""
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", None) or "runtime"
    if module.startswith("repro."):
        module = module[len("repro."):]
    qualname = getattr(func, "__qualname__", None) or type(func).__name__
    return f"{module}.{qualname}"


class Mark(NamedTuple):
    """Clocks and accumulator copies at one edge of the run window."""

    wall: float
    cpu: float
    self_s: Dict[str, float]
    calls: Dict[str, int]


Span = Tuple[str, float, float, Optional[int], Any]
Probe = Callable[["Recorder", tuple], Any]


class Recorder:
    """Per-run span accumulators plus the sampled spans."""

    def __init__(self, inside_s: float = 0.0, outside_s: float = 0.0) -> None:
        #: What one wrapper adds to the span it times (between its two
        #: clock reads) and to the caller around it; see :func:`calibrate`.
        self.inside_s = inside_s
        self.outside_s = outside_s
        #: Wrappers pass straight through until the rep switches this on.
        self.active = False
        #: Child-time cells of the currently open spans, innermost last.
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counts taken at the boundaries (protocol messages by type).
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Optional[Span]] = []
        #: Op being sampled right now (``None`` = not sampling) and the
        #: index of its innermost open span.
        self.op: Any = None
        self.parent: Optional[int] = None
        self.window_open: Optional[Mark] = None
        self.window_close: Optional[Mark] = None
        self._names: Dict[Any, str] = {}

    # -- the wrapper -------------------------------------------------------

    def wrap(
        self, fn: Callable[..., Any], name: str, probe: Optional[Probe] = None
    ) -> Callable[..., Any]:
        """Return ``fn`` timed as span ``name``.

        ``probe(recorder, args)`` runs first on every recorded call: it
        may count at the boundary, and when no op is being sampled it may
        return an op id to start sampling this call tree.
        """
        perf = time.perf_counter
        stack = self.stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        spans = self.spans
        inside, outside = self.inside_s, self.outside_s
        rec = self

        def span(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            opened = False
            if probe is not None:
                op = probe(rec, args)
                if op is not None and rec.op is None:
                    rec.op = op
                    opened = True
            index = -1
            parent = None
            if rec.op is not None:
                index = len(spans)
                spans.append(None)
                parent = rec.parent
                rec.parent = index
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                self_s[name] += duration - stack.pop() - inside
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1] += duration + outside
                if index >= 0:
                    spans[index] = (name, start, end, parent, rec.op)
                    rec.parent = parent
                    if opened:
                        rec.op = None

        return span

    def trampoline(
        self, fn: Callable[..., Any], args: tuple, caller_layer: str
    ) -> Callable[..., Any]:
        """Wrap a scheduled callback under the name of what was scheduled.

        When the first bound argument is itself callable (a timer helper
        handed the action to run), the action names the span: the work
        belongs to whoever set the timer, not to the helper. A callback
        of the layer that will call it (a kernel delivery fired by the
        kernel's run loop) is returned as is: a span there would move no
        time between layers and cost one more wrapper on the hottest path.
        """
        owner = args[0] if args and callable(args[0]) else fn
        func = getattr(owner, "__func__", owner)
        name = self._names.get(func)
        if name is None:
            name = self._names[func] = span_name(owner)
        if layer_of(name) == caller_layer:
            return fn
        return self.wrap(fn, name)

    # -- run window --------------------------------------------------------

    def mark(self) -> Mark:
        return Mark(
            time.perf_counter(),
            time.process_time(),
            dict(self.self_s),
            dict(self.calls),
        )

    def window_seconds(self) -> float:
        assert self.window_open is not None and self.window_close is not None
        return self.window_close.wall - self.window_open.wall

    def window_self(self) -> Dict[str, float]:
        """Self seconds per span name accumulated inside the run window."""
        assert self.window_open is not None and self.window_close is not None
        before = self.window_open.self_s
        return {
            name: seconds - before.get(name, 0.0)
            for name, seconds in self.window_close.self_s.items()
        }

    def window_calls(self) -> Dict[str, int]:
        """Calls per span name completed inside the run window."""
        assert self.window_open is not None and self.window_close is not None
        before = self.window_open.calls
        return {
            name: count - before.get(name, 0)
            for name, count in self.window_close.calls.items()
        }

    def sampled_spans(self, origin: float) -> List[Dict[str, Any]]:
        """The kept spans as JSON-ready rows, times relative to ``origin``."""
        rows = []
        for row in self.spans:
            if row is None:  # still open when the run ended
                continue
            name, start, end, parent, op = row
            rows.append({
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "op_id": op,
            })
        return rows


def layer_shares(
    self_seconds: Dict[str, float], window: float, tracer_seconds: float = 0.0
) -> Dict[str, float]:
    """Each run layer's share of the run window *net of the tracer*.

    The wrappers' estimated cost is taken out of the window first, so
    the layer shares estimate the untraced split and sum to 1:
    ``runtime`` takes what no span covered. ``tracer`` is reported next
    to them as its share of the whole traced window.
    """
    layers = {layer: 0.0 for layer in RUN_LAYERS}
    for name, seconds in self_seconds.items():
        layer = layer_of(name)
        layers[layer if layer in layers else "runtime"] += seconds
    net = window - tracer_seconds
    layers["runtime"] += max(0.0, net - sum(layers.values()))
    shares = {layer: seconds / net for layer, seconds in layers.items()}
    shares[TRACER] = tracer_seconds / window
    return shares


def calibrate(calls: int = 20_000, rounds: int = 5) -> Tuple[float, float]:
    """Estimate one wrapper's cost: ``(inside, outside)`` seconds per call.

    A wrapped no-op is called in a loop inside a wrapped parent. The
    leaf's mean recorded duration, less a bare call of the same no-op,
    is what the wrapper adds *inside* the span it times; the rest of
    the per-iteration wall time is what it adds to the *caller*. The
    median of a few rounds is used. A real run evicts more cache per
    call than this loop, so the estimate is a floor, and what it misses
    stays in the layers (mostly those with many short spans).
    """
    def noop(a, b, c):
        return None

    def bare() -> None:
        for _ in range(calls):
            noop(None, 1, "x")

    inside, outside = [], []
    for _ in range(rounds):
        rec = Recorder()
        rec.active = True
        leaf = rec.wrap(noop, "calibrate.leaf")

        def loop() -> None:
            for _ in range(calls):
                leaf(None, 1, "x")

        start = time.perf_counter()
        bare()
        bare_call = (time.perf_counter() - start) / calls
        start = time.perf_counter()
        rec.wrap(loop, "calibrate.loop")()
        iteration = (time.perf_counter() - start) / calls
        recorded = rec.total_s["calibrate.leaf"] / calls
        inside.append(max(0.0, recorded - bare_call))
        outside.append(max(0.0, iteration - recorded))
    inside.sort()
    outside.sort()
    return inside[rounds // 2], outside[rounds // 2]


# -- probes ------------------------------------------------------------------


def _sampled(number: int) -> bool:
    return number % SAMPLE_EVERY == 0


_PRIORITY_FIELD: Dict[type, Optional[str]] = {}


def message_op(message: Any) -> Optional[Tuple[int, int]]:
    """``(seq, site)`` of the request a protocol message concerns, if any.

    The concerned request is the first priority-valued field of the
    message (of its first part, for a piggyback bundle); the field name
    is looked up once per message class.
    """
    parts = getattr(message, "parts", None)
    if parts:
        message = parts[0]
    cls = message.__class__
    try:
        field = _PRIORITY_FIELD[cls]
    except KeyError:
        field = None
        for name in getattr(cls, "__slots__", ()):
            value = getattr(message, name, None)
            if hasattr(value, "seq") and hasattr(value, "site"):
                field = name
                break
        _PRIORITY_FIELD[cls] = field
    if field is None:
        return None
    priority = getattr(message, field)
    return priority.seq, priority.site


def _probe_on_message(rec: Recorder, args: tuple) -> Any:
    """``on_message(self, src, message)``: sample by request priority."""
    op = message_op(args[2])
    if op is not None and _sampled(op[0] * 8191 + op[1]):
        return f"{op[0]}.{op[1]}"
    return None


def _probe_acquire(rec: Recorder, args: tuple) -> Any:
    """``LockService.acquire``: request ids are handed out in call order."""
    number = rec.counts["locks.acquire"]
    rec.counts["locks.acquire"] = number + 1
    return number if _sampled(number) else None


def _probe_request_arg(rec: Recorder, args: tuple) -> Any:
    """Front-end and service callbacks that take the ``LockRequest``."""
    number = args[1].request_id
    return number if _sampled(number) else None


def _probe_transport_send(rec: Recorder, args: tuple) -> Any:
    """``ReliableTransport.send(self, src, dst, message, type_name, ...)``:
    the one place protocol messages are countable by type once the
    network below also carries acks and retransmissions."""
    rec.counts["msg." + args[4]] += 1
    return None


def _probe_trace_record(rec: Recorder, args: tuple) -> Any:
    """``JsonlTraceWriter.record(self, time, kind, site, detail)``: the UDP
    run window opens at the first ``request`` record and closes at the
    last ``cs_exit``."""
    kind = args[2]
    if kind == "cs_exit":
        rec.window_close = rec.mark()
    elif kind == "request" and rec.window_open is None:
        rec.window_open = rec.mark()
    return None


# -- installation --------------------------------------------------------------

#: ``(module, class or None, attribute, probe)``: the public boundary
#: callables. A ``None`` class means a module global — listed under the
#: module that *holds the reference* the run calls through.
_TARGETS: Tuple[Tuple[str, Optional[str], str, Optional[Probe]], ...] = (
    ("repro.sim.network", "Network", "send", None),
    ("repro.sim.network", "Network", "send_many", None),
    ("repro.mutex.base", "MutexSite", "submit_request", None),
    ("repro.mutex.base", "MutexSite", "release_cs", None),
    ("repro.sim.transport", "ReliableTransport", "send", _probe_transport_send),
    ("repro.sim.transport", "ReliableTransport", "on_network_deliver", None),
    ("repro.locks.service", "LockService", "acquire", _probe_acquire),
    ("repro.locks.service", "LockService", "on_grant", _probe_request_arg),
    ("repro.locks.service", "LockService", "on_release", _probe_request_arg),
    ("repro.locks.service", "LockService", "verify", None),
    ("repro.locks.frontend", "ShardFrontEnd", "enqueue", _probe_request_arg),
    ("repro.locks.frontend", "ShardFrontEnd", "on_granted", None),
    ("repro.net.substrate", "NetSubstrate", "raw_send", None),
    ("repro.net.substrate", "NetSubstrate", "datagram_received", None),
    ("repro.net.substrate", "JsonlTraceWriter", "record", _probe_trace_record),
    ("repro.net.substrate", None, "encode_frame", None),
    ("repro.net.substrate", None, "decode_frame", None),
    ("repro.net.launcher", None, "merge_shard_files", None),
    ("repro.obs.monitor", "ProtocolMonitor", "replay", None),
    ("repro.experiments.runner", None, "check_mutual_exclusion", None),
    ("repro.experiments.runner", None, "check_sequential_per_site", None),
    ("repro.experiments.runner", None, "check_progress", None),
    ("repro.experiments.runner", None, "check_quiescent", None),
    ("repro.experiments.runner", None, "summarize", None),
)


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def install(rec: Recorder) -> List[str]:
    """Wrap every layer-boundary callable; returns the targets not found.

    A missing target is reported, not fatal: its time then falls to the
    enclosing span's layer and the run output says which name moved.
    """
    missing: List[str] = []
    for module_name, class_name, attr, probe in _TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(".".join(filter(None, (module_name, class_name, attr))))
            continue
        setattr(owner, attr, rec.wrap(fn, span_name(fn), probe))

    # Every site class's own message handler, whatever the algorithm.
    from repro.sim.node import Node

    for cls in _all_subclasses(Node):
        handler = cls.__dict__.get("on_message")
        if handler is not None:
            cls.on_message = rec.wrap(handler, span_name(handler), _probe_on_message)

    _install_schedulers(rec)
    _install_run_root(rec)
    return missing


def _install_schedulers(rec: Recorder) -> None:
    """Trampoline every scheduled callback, on both substrates."""
    from repro.net.substrate import NetSubstrate
    from repro.sim.event import EventQueue

    push = EventQueue.push

    def traced_push(self, time, fn, args=(), label=""):
        return push(self, time, rec.trampoline(fn, args, "sim"), args, label)

    EventQueue.push = rec.wrap(traced_push, span_name(push))

    schedule_call = NetSubstrate.schedule_call

    def traced_schedule_call(self, delay, fn, args=(), label=""):
        return schedule_call(self, delay, rec.trampoline(fn, args, "runtime"), args, label)

    NetSubstrate.schedule_call = rec.wrap(
        traced_schedule_call, span_name(schedule_call)
    )


def _install_run_root(rec: Recorder) -> None:
    """``Simulator.run`` is the root span and the run window on the sim."""
    from repro.sim.simulator import Simulator

    timed = rec.wrap(Simulator.run, span_name(Simulator.run))

    def root(self, *args, **kwargs):
        rec.window_open = rec.mark()
        try:
            return timed(self, *args, **kwargs)
        finally:
            rec.window_close = rec.mark()

    Simulator.run = root
