"""Maekawa's quorum-based mutual exclusion (1985), reference [8].

The first ``O(sqrt N)`` algorithm and the baseline whose ``2T``
synchronization delay the paper halves. A site locks every member of its
quorum; an arbiter grants one ``locked`` at a time and queues the rest;
deadlocks are resolved with ``failed`` / ``inquire`` / ``relinquish``
messages driven by request priorities.

On exit the site sends ``release`` to its arbiters, and each arbiter then
grants its next waiting request — the release→grant relay through the
arbiter is exactly the two serial message delays (``2T``) the proposed
algorithm eliminates.

This implementation is standalone (its own message types and handlers) so
it can serve as an independent check of the shared inquire/fail/yield
machinery in :mod:`repro.core`; at heavy load it costs ``5(K-1)`` messages
per CS execution, matching the paper's Table 1 row.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.core.state import ArbiterState
from repro.errors import ProtocolError
from repro.mutex.base import DurationSpec, MutexSite, RunListener, SiteState
from repro.common import Priority, slotted_dataclass
from repro.substrate import SiteId


@slotted_dataclass(unsafe_hash=True)
class MkRequest:
    """Ask an arbiter for its lock."""

    priority: Priority

    type_name = "request"


@slotted_dataclass(unsafe_hash=True)
class MkLocked:
    """Arbiter's grant (Maekawa's ``locked``)."""

    arbiter: SiteId
    grantee: Priority

    type_name = "reply"


@slotted_dataclass(unsafe_hash=True)
class MkFailed:
    """The arbiter is held by a higher-priority request."""

    arbiter: SiteId
    target: Priority

    type_name = "fail"


@slotted_dataclass(unsafe_hash=True)
class MkInquire:
    """Arbiter asks its lock holder to relinquish for a better request."""

    arbiter: SiteId
    target: Priority

    type_name = "inquire"


@slotted_dataclass(unsafe_hash=True)
class MkRelinquish:
    """Lock holder gives the arbiter's grant back (Maekawa's yield)."""

    yielder: Priority

    type_name = "yield"


@slotted_dataclass(unsafe_hash=True)
class MkRelease:
    """CS exit notification to an arbiter."""

    releaser: Priority

    type_name = "release"


class MaekawaSite(MutexSite):
    """One site of Maekawa's algorithm (requester + arbiter roles)."""

    algorithm_name = "maekawa"

    def __init__(
        self,
        site_id: SiteId,
        quorum: Iterable[SiteId],
        cs_duration: DurationSpec = 0.1,
        listener: Optional[RunListener] = None,
    ) -> None:
        super().__init__(site_id, cs_duration, listener)
        self.quorum = frozenset(quorum)
        if not self.quorum:
            raise ProtocolError(f"site {site_id} has an empty quorum")
        #: Canonical broadcast order, interned once (fanout hot path).
        self._quorum_sorted = tuple(sorted(self.quorum))
        self.arbiter = ArbiterState()
        #: True once an inquire was sent for the current lock tenure.
        self.inquired = False
        # requester state
        self.clock = 0
        self.my_request: Optional[Priority] = None
        self.locked_from: Set[SiteId] = set()
        self.failed = False
        self.inq_pending: Set[SiteId] = set()

    # ------------------------------------------------------------------
    # Requester role
    # ------------------------------------------------------------------

    def _begin_request(self) -> None:
        self.clock += 1
        self.my_request = Priority(self.clock, self.site_id)
        self.locked_from.clear()
        self.failed = False
        self.inq_pending.clear()
        # One request shared across the whole fanout.
        request = MkRequest(self.my_request)
        for member in self._quorum_sorted:
            self.send(member, request)

    def _exit_protocol(self) -> None:
        assert self.my_request is not None
        release = MkRelease(self.my_request)
        self.my_request = None
        self.inq_pending.clear()
        for member in self._quorum_sorted:
            self.send(member, release)

    def _handle_locked(self, msg: MkLocked) -> None:
        if self.my_request is None or msg.grantee != self.my_request:
            return
        if self.state is not SiteState.REQUESTING:
            return
        self.clock = max(self.clock, msg.grantee.seq)
        self.locked_from.add(msg.arbiter)
        if self.locked_from >= self.quorum:
            self._enter_cs()

    def _handle_failed(self, msg: MkFailed) -> None:
        if self.my_request is None or msg.target != self.my_request:
            return
        if self.state is not SiteState.REQUESTING:
            return
        self.failed = True
        for arbiter in sorted(self.inq_pending):
            if arbiter in self.locked_from:
                self.inq_pending.discard(arbiter)
                self._relinquish(arbiter)

    def _handle_inquire(self, msg: MkInquire) -> None:
        if self.my_request is None or msg.target != self.my_request:
            return  # stale: we already released
        if self.state is not SiteState.REQUESTING:
            return  # executing the CS; the release answers the arbiter
        if self.failed and msg.arbiter in self.locked_from:
            self._relinquish(msg.arbiter)
        else:
            # We may yet collect every lock; decide when a failed arrives.
            self.inq_pending.add(msg.arbiter)

    def _relinquish(self, arbiter: SiteId) -> None:
        assert self.my_request is not None
        self.locked_from.discard(arbiter)
        self.failed = True
        self.send(arbiter, MkRelinquish(yielder=self.my_request))

    # ------------------------------------------------------------------
    # Arbiter role
    # ------------------------------------------------------------------

    def _handle_request(self, msg: MkRequest) -> None:
        self.clock = max(self.clock, msg.priority.seq)
        arb = self.arbiter
        if arb.is_free:
            arb.lock = msg.priority
            self.inquired = False
            self.send(msg.priority.site, MkLocked(self.site_id, msg.priority))
            return
        newcomer = msg.priority
        head = arb.req_queue.head()
        if newcomer > arb.lock or (head is not None and newcomer > head):
            self.send(newcomer.site, MkFailed(self.site_id, newcomer))
        elif newcomer < arb.lock and not self.inquired:
            self.inquired = True
            self.send(arb.lock.site, MkInquire(self.site_id, arb.lock))
        if (
            head is not None
            and newcomer < head
            and head < arb.lock
        ):
            # The displaced head is no longer next in line; without this
            # failed it could defer inquires elsewhere forever believing
            # it may still win (deadlock). Same rule as the proposed
            # algorithm's A.2 (paper case 4).
            self.send(head.site, MkFailed(self.site_id, head))
        arb.req_queue.push(newcomer)

    def _grant_head(self) -> None:
        arb = self.arbiter
        if not arb.req_queue:
            arb.lock = Priority.maximum()
            self.inquired = False
            return
        new_lock = arb.req_queue.pop_head()
        arb.lock = new_lock
        self.inquired = False
        self.send(new_lock.site, MkLocked(self.site_id, new_lock))

    def _handle_relinquish(self, msg: MkRelinquish) -> None:
        arb = self.arbiter
        if msg.yielder != arb.lock:
            return  # stale relinquish
        arb.req_queue.push(arb.lock)
        self._grant_head()

    def _handle_release(self, msg: MkRelease) -> None:
        arb = self.arbiter
        if arb.lock != msg.releaser:
            raise ProtocolError(
                f"arbiter {self.site_id}: release from {msg.releaser} but "
                f"lock is {arb.lock}"
            )
        self._grant_head()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def on_message(self, src: SiteId, message: object) -> None:
        if isinstance(message, MkRequest):
            self._handle_request(message)
        elif isinstance(message, MkLocked):
            self._handle_locked(message)
        elif isinstance(message, MkFailed):
            self._handle_failed(message)
        elif isinstance(message, MkInquire):
            self._handle_inquire(message)
        elif isinstance(message, MkRelinquish):
            self._handle_relinquish(message)
        elif isinstance(message, MkRelease):
            self._handle_release(message)
        else:
            raise TypeError(f"unexpected message {message!r}")
