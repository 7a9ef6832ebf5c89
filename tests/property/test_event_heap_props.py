"""Property tests for the tuple-heap event queue's kernel contract.

The refactored queue stores ``(time, seq, event)`` tuples and cancels
lazily, so two invariants carry the whole kernel's determinism and are
easy to break silently:

* ``len(queue)`` equals the number of live (pushed, not yet popped, not
  cancelled) events at every point of any interleaving — lazy
  cancellation must never leak into the accounting.
* Events pop in exactly ``(time, seq)`` order: non-decreasing time, and
  scheduling order within a tie — never heap order, never approximation.

Both are checked under random interleavings of push / cancel / pop /
peek driven by a Hypothesis rule machine.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.event import EventQueue


@given(
    times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200),
)
def test_pop_order_is_exactly_time_then_seq(times):
    q = EventQueue()
    handles = [q.push(t, lambda: None) for t in times]
    expected = sorted(range(len(times)), key=lambda i: (times[i], handles[i].seq))
    popped = []
    while (event := q.pop_due()) is not None:
        popped.append(event.seq)
    assert popped == [handles[i].seq for i in expected]


class EventQueueMachine(RuleBasedStateMachine):
    """Random push/cancel/pop/peek interleavings against a model.

    The model is just the set of live handles; after every rule the
    queue's length must match it, and every popped event must be the
    ``(time, seq)``-minimum of the model at the moment of the pop.
    """

    def __init__(self):
        super().__init__()
        self.queue = EventQueue()
        self.live = {}  # seq -> handle

    @rule(time=st.floats(0.0, 100.0, allow_nan=False))
    def push(self, time):
        handle = self.queue.push(time, lambda: None)
        self.live[handle.seq] = handle

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def cancel_one(self, data):
        seq = data.draw(st.sampled_from(sorted(self.live)))
        self.live.pop(seq).cancel()

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def cancel_is_idempotent(self, data):
        seq = data.draw(st.sampled_from(sorted(self.live)))
        handle = self.live.pop(seq)
        handle.cancel()
        handle.cancel()  # double-cancel must not corrupt the live count

    @rule()
    def pop_min(self):
        expected = min(
            ((h.time, h.seq) for h in self.live.values()), default=None
        )
        event = self.queue.pop_due()
        if expected is None:
            assert event is None
        else:
            assert (event.time, event.seq) == expected
            del self.live[event.seq]

    @rule(bound=st.floats(0.0, 100.0, allow_nan=False))
    def pop_due_respects_bound(self, bound):
        # A bounded pop returns the model's minimum iff it is due, and
        # otherwise leaves the queue untouched.
        expected = min(
            ((h.time, h.seq) for h in self.live.values()), default=None
        )
        event = self.queue.pop_due(bound)
        if expected is None or expected[0] > bound:
            assert event is None
        else:
            assert (event.time, event.seq) == expected
            del self.live[event.seq]

    @rule()
    def peek_matches_min_live_time(self):
        expected = min((h.time for h in self.live.values()), default=None)
        assert self.queue.peek_time() == expected

    @invariant()
    def len_counts_live_events_exactly(self):
        assert len(self.queue) == len(self.live)
        assert bool(self.queue) == bool(self.live)


TestEventQueueMachine = EventQueueMachine.TestCase
TestEventQueueMachine.settings = settings(max_examples=60, stateful_step_count=40)
