"""Unit tests for the event queue (ordering, cancellation, accounting)."""

from __future__ import annotations

import pytest

from repro.sim.event import Event, EventQueue


def test_empty_queue_pops_none():
    q = EventQueue()
    assert q.pop_due() is None
    assert len(q) == 0
    assert not q


def test_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append("c"))
    q.push(1.0, lambda: fired.append("a"))
    q.push(2.0, lambda: fired.append("b"))
    while (event := q.pop_due()) is not None:
        event.fire()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    q = EventQueue()
    fired = []
    for tag in range(10):
        q.push(5.0, lambda t=tag: fired.append(t))
    while (event := q.pop_due()) is not None:
        event.fire()
    assert fired == list(range(10))


def test_len_counts_live_events():
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(4)]
    assert len(q) == 4
    handles[1].cancel()
    assert len(q) == 3  # cancellation visible immediately in accounting


def test_cancelled_event_does_not_fire():
    q = EventQueue()
    fired = []
    keep = q.push(1.0, lambda: fired.append("keep"))
    drop = q.push(0.5, lambda: fired.append("drop"))
    drop.cancel()
    while (event := q.pop_due()) is not None:
        event.fire()
    assert fired == ["keep"]
    assert keep.cancelled is False


def test_peek_time_skips_cancelled():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert q.peek_time() == 1.0
    first.cancel()
    assert q.peek_time() == 2.0


def test_peek_time_empty_queue():
    assert EventQueue().peek_time() is None


def test_event_ordering():
    a = Event(time=1.0, seq=0, fn=lambda: None)
    b = Event(time=1.0, seq=1, fn=lambda: None)
    c = Event(time=2.0, seq=0, fn=lambda: None)
    assert a < b < c


def test_fire_passes_bound_args():
    got = []
    event = Event(time=0.0, seq=0, fn=lambda *a: got.append(a), args=(1, "x"))
    event.fire()
    assert got == [(1, "x")]


def test_pop_due_respects_limit():
    q = EventQueue()
    q.push(1.0, lambda: None)
    late = q.push(5.0, lambda: None)
    assert q.pop_due(2.0).time == 1.0
    assert q.pop_due(2.0) is None  # next event is beyond the limit
    assert len(q) == 1  # ...and stays queued
    assert q.pop_due(None) is late


def test_bool_reflects_liveness():
    q = EventQueue()
    handle = q.push(1.0, lambda: None)
    assert q
    handle.cancel()
    assert not q


# -- same-instant events -------------------------------------------------------


def test_interleaved_pushes_keep_seq_tiebreak():
    # Same-timestamp events scheduled in between other timestamps still
    # come back in scheduling (seq) order, never heap-internal order.
    q = EventQueue()
    order = []
    q.push(5.0, lambda: order.append("a"))
    q.push(3.0, lambda: order.append("early"))
    q.push(5.0, lambda: order.append("b"))
    q.push(7.0, lambda: order.append("later"))
    q.push(5.0, lambda: order.append("c"))
    while (event := q.pop_due(5.0)) is not None:
        event.fire()
    assert order == ["early", "a", "b", "c"]
    assert len(q) == 1  # t=7.0 untouched


def test_pop_due_discards_cancelled_entries():
    q = EventQueue()
    keep_a = q.push(1.0, lambda: None)
    drop = q.push(1.0, lambda: None)
    keep_b = q.push(1.0, lambda: None)
    drop.cancel()
    assert q.pop_due() is keep_a
    assert q.pop_due() is keep_b
    assert q.pop_due() is None
    assert len(q) == 0


def test_cancel_after_pop_only_flags_the_event():
    # Popped events are detached: a late cancel (e.g. a timer disarmed
    # after it fired) must not touch the queue's live count again.
    q = EventQueue()
    q.push(1.0, lambda: None)
    survivor = q.push(2.0, lambda: None)
    popped = q.pop_due()
    assert len(q) == 1
    popped.cancel()
    popped.cancel()  # idempotent
    assert popped.cancelled
    assert len(q) == 1  # live count unchanged; only the t=2 event remains
    assert q.pop_due() is survivor


def test_zero_delay_followup_lands_in_the_next_cohort():
    # An event that schedules at its own timestamp gets a larger seq, so
    # it fires after everything already queued for that instant —
    # exactly the (time, seq) order.
    q = EventQueue()
    fired = []

    def first():
        fired.append("first")
        q.push(1.0, lambda: fired.append("follow-up"))

    q.push(1.0, first)
    q.push(1.0, lambda: fired.append("second"))
    while (event := q.pop_due()) is not None:
        event.fire()
    assert fired == ["first", "second", "follow-up"]
