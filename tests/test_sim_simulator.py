"""Unit tests for the simulator loop, timers, and failure hooks."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.network import ConstantDelay
from repro.sim.node import Node
from repro.sim.simulator import Simulator


class Probe(Node):
    def __init__(self, site_id):
        super().__init__(site_id)
        self.started = False
        self.crashes = 0
        self.recoveries = 0
        self.inbox = []

    def on_start(self):
        self.started = True

    def on_message(self, src, message):
        self.inbox.append((src, message))

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def test_duplicate_site_id_rejected():
    sim = Simulator()
    sim.add_node(Probe(0))
    with pytest.raises(SimulationError):
        sim.add_node(Probe(0))


def test_add_after_start_rejected():
    sim = Simulator()
    sim.add_node(Probe(0))
    sim.start()
    with pytest.raises(SimulationError):
        sim.add_node(Probe(1))


def test_start_is_idempotent_and_calls_hook():
    sim = Simulator()
    node = sim.add_node(Probe(0))
    sim.start()
    sim.start()
    assert node.started


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_or_time_rejected_before_it_poisons_the_clock():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule_call(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    sim.run()
    assert sim.now == 0.0 and sim.pending_events() == 0


def test_schedule_at_fires_at_exactly_the_given_time():
    # 0.1 + (0.3 - 0.1) is 0.30000000000000004: a delay cannot say "at 0.3".
    sim = Simulator()
    fired = []
    sim.schedule_call(0.1, lambda: sim.schedule_at(0.3, fired.append, (1,), "x"))
    sim.run()
    assert sim.now == 0.3 and fired == [1]
    with pytest.raises(SimulationError):
        sim.schedule_at(0.2, fired.append, (2,))
    handle = sim.schedule_at(0.3, fired.append, (3,))  # "now" is allowed
    handle.cancel()
    sim.run()
    assert fired == [1]


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("at5"))
    sim.schedule(7.0, lambda: fired.append("at7"))
    sim.run(until=5.0)
    assert fired == ["at5"]
    assert sim.now == 5.0
    sim.run(until=10.0)
    assert fired == ["at5", "at7"]


def test_run_until_advances_clock_when_next_event_is_beyond():
    """Stop path 1: the next live event lies beyond ``until``."""
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.last_event_time == 2.0
    assert sim.pending_events() == 1  # the t=9 event is untouched


def test_run_until_advances_clock_when_queue_drains():
    """Stop path 2: the queue drains before ``until``; the clock still
    catches up to the bound, so both stop paths agree on ``sim.now``."""
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0
    assert sim.last_event_time == 2.0
    sim.run(until=100.0)  # idempotent: already caught up
    assert sim.now == 100.0


def test_run_until_never_moves_clock_backwards():
    sim = Simulator()
    sim.schedule(7.0, lambda: None)
    sim.run()  # drain, no bound: now == last event
    assert sim.now == 7.0
    sim.run(until=3.0)  # bound in the past must not rewind the clock
    assert sim.now == 7.0


def test_run_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.pending_events() == 7


def test_run_max_events_exhaustion_leaves_clock_mid_flight():
    """When the budget runs out the run is mid-flight: the clock stays at
    the last processed event instead of jumping to ``until``."""
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    sim.run(until=50.0, max_events=3)
    assert sim.now == 2.0
    assert sim.last_event_time == 2.0
    sim.run(until=50.0)  # finishing the run catches the clock up
    assert sim.now == 50.0
    assert sim.last_event_time == 9.0


def test_last_event_time_tracks_activity_not_bound():
    sim = Simulator()
    assert sim.last_event_time == 0.0
    sim.schedule(4.0, lambda: None)
    sim.run(until=1_000.0)
    assert sim.last_event_time == 4.0
    sim.run(until=2_000.0)  # nothing processed: unchanged
    assert sim.last_event_time == 4.0


def test_timer_cancellation_via_handle():
    sim = Simulator()
    node = sim.add_node(Probe(0))
    sim.start()
    fired = []
    handle = node.set_timer(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_timers_suppressed_while_crashed():
    sim = Simulator()
    node = sim.add_node(Probe(0))
    sim.start()
    fired = []
    node.set_timer(1.0, lambda: fired.append("x"))
    sim.crash(0)
    sim.run()
    assert fired == []
    assert node.crashes == 1


def test_crash_and_recover_hooks_fire_once():
    sim = Simulator()
    node = sim.add_node(Probe(0))
    sim.start()
    sim.crash(0)
    sim.crash(0)  # idempotent
    sim.recover(0)
    sim.recover(0)
    assert node.crashes == 1
    assert node.recoveries == 1


def test_crashed_sender_sends_nothing():
    sim = Simulator(delay_model=ConstantDelay(1.0))
    a, b = Probe(0), Probe(1)
    sim.add_node(a)
    sim.add_node(b)
    sim.start()
    sim.crash(0)
    a.send(1, "nope")
    sim.run()
    assert b.inbox == []


def test_unknown_destination_raises():
    sim = Simulator(delay_model=ConstantDelay(1.0))
    a = sim.add_node(Probe(0))
    sim.start()
    sim.network.send(0, 99, "ghost", "probe")
    with pytest.raises(SimulationError):
        sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_until_bound_executes_the_whole_cohort_at_the_bound():
    # ``until`` is inclusive: every event sitting exactly on the bound
    # (the same-instant cohort) fires, never only some of them.
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(5.0, lambda i=i: fired.append(i))
    sim.schedule(5.000001, lambda: fired.append("beyond"))
    sim.run(until=5.0)
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 5.0
    assert sim.pending_events() == 1


def test_same_instant_followup_fires_within_the_bound():
    # An event at t == until that schedules a zero-delay follow-up: the
    # follow-up lands at the same instant (<= until) and must also run
    # before the bound stops the loop.
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, lambda: fired.append("follow-up"))

    sim.schedule(5.0, first)
    sim.run(until=5.0)
    assert fired == ["first", "follow-up"]
    assert sim.now == 5.0


def test_cancel_inside_a_cohort_skips_the_later_member():
    # An event cancelling a later event of the same instant must
    # suppress its callback.
    sim = Simulator()
    fired = []
    handles = {}

    def first():
        fired.append("first")
        handles["second"].cancel()

    sim.schedule(5.0, first)
    handles["second"] = sim.schedule(5.0, lambda: fired.append("second"))
    sim.schedule(5.0, lambda: fired.append("third"))
    sim.run()
    assert fired == ["first", "third"]


def test_same_timestamp_budget_exhaustion_resumes_in_time_seq_order():
    # The event budget can run out between events of one instant; the
    # unfired rest stays queued and a later run continues in (time, seq)
    # order, including a zero-delay follow-up scheduled before the stop.
    sim = Simulator()
    fired = []

    def zeroth():
        fired.append(0)
        sim.schedule(0.0, lambda: fired.append("follow-up"))

    sim.schedule(5.0, zeroth)
    for i in range(1, 6):
        sim.schedule(5.0, lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.pending_events() == 4
    assert sim.now == 5.0
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5, "follow-up"]
    assert sim.events_processed == 7


def test_raising_callback_keeps_the_queue_complete_and_counters_truthful():
    # A callback that raises has been counted, and every event not yet
    # fired (same instant and later) is still queued for the next run.
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule(5.0, lambda: fired.append("before"))
    sim.schedule(5.0, boom)
    sim.schedule(5.0, lambda: fired.append("same-instant"))
    sim.schedule(6.0, lambda: fired.append("later"))
    with pytest.raises(RuntimeError):
        sim.run(until=10.0)
    assert fired == ["before"]
    assert sim.events_processed == 2
    assert sim.last_event_time == 5.0
    assert sim.now == 5.0  # the clock did not jump to the bound
    assert sim.pending_events() == 2
    sim.run(until=10.0)
    assert fired == ["before", "same-instant", "later"]
    assert sim.now == 10.0


def test_deterministic_replay_same_seed():
    def transcript(seed):
        sim = Simulator(seed=seed)
        a, b = Probe(0), Probe(1)
        sim.add_node(a)
        sim.add_node(b)
        sim.start()
        for i in range(20):
            a.send(1, i)
        sim.run()
        return [(round(t, 12) if isinstance(t, float) else t) for t in [sim.now]], b.inbox

    assert transcript(11) == transcript(11)
    assert transcript(11) != transcript(12)
