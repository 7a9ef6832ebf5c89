"""The ladder: each layer's public functions timed in isolation.

Rungs follow ROADMAP item 1 — bare kernel, + network model, then the
pieces the workloads cannot isolate (router, wire codec, trace
export/import, monitor replay, quorum construction, arrival schedule,
and what ``trace=True`` costs a simulated run). Every rung repeats its
body and reports the median, so one slow pass does not set the figure.
A rung's input is fixed: the ladder compares two versions of the
program, not two inputs.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from itertools import islice
from pathlib import Path
from typing import Callable, Dict

from workloads import BY_NAME

REPEATS = 3


def _median_seconds(body: Callable[[], None], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def rung_timer_events(events: int = 100_000, timers: int = 64) -> float:
    """Bare kernel: self-rescheduling timers, no network, no sites."""
    from repro.sim.simulator import Simulator

    def body() -> None:
        sim = Simulator(seed=1)
        budget = [events]

        def tick(period: float) -> None:
            if budget[0] > 0:
                budget[0] -= 1
                sim.schedule_call(period, tick, (period,), "tick")

        for i in range(timers):
            sim.schedule_call(0.0, tick, (1.0 + i / timers,), "tick")
        sim.run()
        assert sim.events_processed == events + timers

    return events / _median_seconds(body)


def rung_network_events(messages: int = 60_000, nodes: int = 16) -> float:
    """Kernel + network model: echo nodes bouncing one payload each."""
    from repro.sim.network import UniformDelay
    from repro.sim.node import Node
    from repro.sim.simulator import Simulator

    budget = [0]

    class Echo(Node):
        def on_start(self) -> None:
            self.send((self.site_id + 1) % nodes, "ping")

        def on_message(self, src, message) -> None:
            if budget[0] > 0:
                budget[0] -= 1
                self.send(src, message)

    def body() -> None:
        budget[0] = messages - nodes
        sim = Simulator(seed=1, delay_model=UniformDelay(0.5, 1.5))
        for i in range(nodes):
            sim.add_node(Echo(i))
        sim.start()
        sim.run()
        assert sim.network.stats.messages_delivered == messages

    return messages / _median_seconds(body)


def rung_router(keys: int = 50_000) -> float:
    """``ShardRouter.place`` per key, microseconds."""
    from repro.locks.router import ShardRouter

    router = ShardRouter(16, 9)
    names = [f"lock-{i}" for i in range(keys)]

    def body() -> None:
        place = router.place
        for name in names:
            place(name)

    return _median_seconds(body) / keys * 1e6


def _one_frame_of_each():
    """A reliable-channel segment around each protocol message type,
    one piggyback bundle, and one pure ack."""
    from repro.common import Priority, bundle_or_single
    from repro.core.messages import (
        Fail, Inquire, Release, Reply, Request, Transfer, Yield,
    )
    from repro.sim.transport import AckSegment, Segment

    p, q = Priority(7, 3), Priority(9, 5)
    messages = [
        Request(p), Reply(2, p, None, 4), Release(p, q, 4), Inquire(2, p, 4),
        Fail(2, p), Yield(p, 4), Transfer(q, 2, p, 4),
        bundle_or_single(Reply(2, p, None, 4), Transfer(q, 2, p, 4)),
    ]
    frames = [
        (Segment(11, 0, 10, 0, m, getattr(m, "type_name", "bundle")),
         getattr(m, "type_name", "bundle"))
        for m in messages
    ]
    frames.append((AckSegment(10, 0), "ack"))
    return frames


def rung_wire(rounds: int = 1_500) -> Dict[str, float]:
    """Wire codec: microseconds per frame, over one frame of each type."""
    from repro.net.wire import decode_frame, encode_frame

    frames = _one_frame_of_each()
    datagrams = [encode_frame(1, 2, frame, name) for frame, name in frames]

    def encode() -> None:
        for _ in range(rounds):
            for frame, name in frames:
                encode_frame(1, 2, frame, name)

    def decode() -> None:
        for _ in range(rounds):
            for data in datagrams:
                decode_frame(data)

    per = rounds * len(frames)
    return {
        "net.wire_encode_us": _median_seconds(encode) / per * 1e6,
        "net.wire_decode_us": _median_seconds(decode) / per * 1e6,
    }


def _heavy_config(requests_per_site: int, trace: bool, **changes):
    """The ``mutex_sim_heavy`` config, shortened, with the trace on or off."""
    from repro.workload.driver import SaturationWorkload

    return dataclasses.replace(
        BY_NAME["mutex_sim_heavy"].make_config(1),
        workload=SaturationWorkload(requests_per_site), trace=trace, **changes,
    )


def rung_obs(scratch: Path) -> Dict[str, float]:
    """Trace export, import and monitor replay, records per second, over
    the trace of a small simulated run."""
    from repro.experiments.runner import run_mutex
    from repro.obs.export import export_jsonl, import_jsonl
    from repro.obs.monitor import ProtocolMonitor

    records = list(run_mutex(_heavy_config(40, True, n_sites=9)).sim.trace)
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "rung-trace.jsonl"
    try:
        export_s = _median_seconds(lambda: export_jsonl(records, str(path)))
        import_s = _median_seconds(lambda: import_jsonl(str(path)))
    finally:
        path.unlink(missing_ok=True)

    def replay() -> None:
        violations = ProtocolMonitor(strict=False).replay(records)
        assert not violations

    n = len(records)
    return {
        "obs.export_records_per_s": n / export_s,
        "obs.import_records_per_s": n / import_s,
        "obs.monitor_replay_records_per_s": n / _median_seconds(replay),
    }


def rung_trace_on_overhead() -> float:
    """``1 - untraced time / traced time`` for the ``mutex_sim_heavy``
    config at 40 requests per site: the cost of ``trace=True``."""
    from repro.experiments.runner import run_mutex

    def timed(trace: bool) -> float:
        start = time.perf_counter()
        run_mutex(_heavy_config(40, trace))
        return time.perf_counter() - start

    off, on = [], []
    for _ in range(2):  # alternate so drift hits both sides alike
        off.append(timed(False))
        on.append(timed(True))
    return 1.0 - min(off) / min(on)


def rung_quorum_build() -> float:
    """Grid quorum system for N=49: build plus pairwise validation."""
    from repro.quorums.registry import make_quorum_system

    return _median_seconds(
        lambda: make_quorum_system("grid", 49).validate(), repeats=5
    )


def rung_population() -> float:
    """The ``locks_sim_hot`` client population: Poisson arrival times plus
    one (client, key) draw per acquire, as ``run_lock_service`` builds it."""
    from repro.workload.arrivals import PoissonArrivals

    config = BY_NAME["locks_sim_hot"].make_config(1)

    def body() -> None:
        rng = random.Random(1)
        arrivals = PoissonArrivals(config.arrival_rate).times(rng, math.inf)
        times = list(islice(arrivals, config.n_requests))
        sampler = config.make_sampler()
        for _ in times:
            rng.randrange(config.n_clients)
            sampler.sample(rng)

    return _median_seconds(body)


def run_all(scratch: Path) -> Dict[str, float]:
    """Every rung metric by its catalogue name."""
    out = {
        "sim.rung_timer_events_per_s": rung_timer_events(),
        "sim.rung_network_events_per_s": rung_network_events(),
        "locks.router_us_per_key": rung_router(),
        "obs.trace_on_overhead_share": rung_trace_on_overhead(),
        "quorums.build_validate_s": rung_quorum_build(),
        "workload.population_s": rung_population(),
    }
    out.update(rung_wire())
    out.update(rung_obs(scratch))
    return out
