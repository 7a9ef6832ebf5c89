"""Property tests for the simulation substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.event import EventQueue
from repro.sim.network import ExponentialDelay, UniformDelay
from repro.sim.node import Node
from repro.sim.simulator import Simulator


@given(
    times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=100),
)
def test_event_queue_pops_in_nondecreasing_time_order(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (event := q.pop_due()) is not None:
        popped.append(event.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    times=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=60),
    cancel_idx=st.data(),
)
def test_cancellation_never_fires(times, cancel_idx):
    q = EventQueue()
    handles = [q.push(t, lambda: None) for t in times]
    to_cancel = cancel_idx.draw(
        st.sets(st.integers(0, len(times) - 1), max_size=len(times))
    )
    for i in to_cancel:
        handles[i].cancel()
    survivors = 0
    while q.pop_due() is not None:
        survivors += 1
    assert survivors == len(times) - len(to_cancel)


class _Collector(Node):
    def __init__(self, site_id):
        super().__init__(site_id)
        self.got = []

    def on_message(self, src, message):
        self.got.append(message)


@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 80),
    model=st.one_of(
        st.builds(UniformDelay, st.just(0.1), st.floats(0.2, 5.0)),
        st.builds(ExponentialDelay, st.floats(0.2, 3.0)),
    ),
)
@settings(max_examples=60, deadline=None)
def test_fifo_holds_for_any_delay_model(seed, count, model):
    sim = Simulator(seed=seed, delay_model=model)
    a, b = _Collector(0), _Collector(1)
    sim.add_node(a)
    sim.add_node(b)
    sim.start()
    for i in range(count):
        a.send(1, i)
    sim.run()
    assert b.got == list(range(count))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_replay_determinism(seed):
    def run_once():
        sim = Simulator(seed=seed, delay_model=ExponentialDelay(1.0))
        a, b = _Collector(0), _Collector(1)
        sim.add_node(a)
        sim.add_node(b)
        sim.start()
        for i in range(30):
            a.send(1, i)
            b.send(0, -i)
        sim.run()
        return (sim.now, a.got, b.got, sim.network.stats.messages_delivered)

    assert run_once() == run_once()
