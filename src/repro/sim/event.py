"""Event primitives for the discrete-event simulation kernel.

The kernel is a classic calendar queue: an :class:`Event` is a callback
bound to a simulated time, and ties are broken deterministically by a
monotonically increasing sequence number assigned at scheduling time. That
tie-break makes every simulation run a pure function of its seed, which the
test suite, the golden-fingerprint layer, and the benchmark harness rely
on.

Hot-path layout
---------------
The heap stores ``(time, seq, event)`` tuples, *not* the events
themselves: ``heapq`` then compares entries with C-level tuple/float
comparisons instead of calling a Python ``__lt__`` per sift step, and the
globally unique ``seq`` guarantees the third element is never compared.
The :class:`Event` handle is a ``__slots__`` object holding the callback
as ``(fn, args)`` — scheduling a call site this way costs one small
object, where the previous kernel paid for an ordered dataclass (with its
``__dict__``) plus a capturing closure per event.

Popping detaches the event from the queue, so a ``cancel()`` issued
*after* the pop only flags the event and never touches the live count
again.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError

#: Type alias for event callbacks. Callbacks receive the ``args`` tuple
#: they were scheduled with (``()`` for the common no-argument case).
Action = Callable[..., None]


class Event:
    """A scheduled callback handle.

    Events order by ``(time, seq)`` — ``seq`` is assigned by the queue so
    two events scheduled for the same instant fire in scheduling order,
    keeping runs deterministic without relying on heap internals. Firing
    calls ``fn(*args)``; binding arguments in the event (instead of a
    closure) keeps the schedule path allocation-lean.
    """

    __slots__ = ("time", "seq", "fn", "args", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Action,
        args: Tuple[Any, ...] = (),
        label: str = "",
        _queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        #: Human-readable tag used by traces and error messages.
        self.label = label
        #: Cancelled events stay in the heap but are skipped on pop.
        self.cancelled = False
        #: Owning queue while the event sits in the heap; popping clears
        #: it, so a late cancel() never double-decrements the live count.
        self._queue = _queue

    def fire(self) -> None:
        """Invoke the scheduled callback."""
        self.fn(*self.args)

    def cancel(self) -> None:
        """Mark the event so it is never fired.

        Idempotent. While the event is still queued the owning queue's
        live count drops immediately, so ``len(queue)`` never counts
        cancelled timers; an event already popped is only flagged.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    # Ordering mirrors the heap contract; only (time, seq) participate.

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __le__(self, other: "Event") -> bool:
        return (self.time, self.seq) <= (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}, label={self.label!r}{state})"


class EventQueue:
    """A deterministic min-heap of :class:`Event` handles.

    The queue never exposes heap order beyond the strict ``(time, seq)``
    contract. Cancellation is lazy: cancelled events are skipped when
    popped, which keeps :meth:`push` and :meth:`Event.cancel` O(log n) and
    O(1) respectively, while ``len()`` reflects live events exactly.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        #: Heap entries are ``(time, seq, event)`` — see module docstring.
        self._heap: list = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        fn: Action,
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` and return the event handle.

        The handle supports :meth:`Event.cancel` for timers that may be
        disarmed (for example heartbeat timeouts refreshed by a new
        heartbeat).
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, label, self)
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` to keep the live count exact."""
        self._live -= 1

    def pop_due(self, limit: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event with ``time <= limit``.

        Returns ``None`` when the queue is empty or the next live event
        fires after ``limit`` (which is then left in place). ``limit=None``
        means no bound. Cancelled events encountered on the way are
        discarded silently.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event: Event = head[2]
            if event.cancelled:
                heappop(heap)
                continue
            if limit is not None and head[0] > limit:
                return None
            heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        if self._live:
            # Every live event must be reachable; a mismatch means the
            # cancellation bookkeeping broke.
            raise SimulationError("event queue accounting is corrupt")
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
