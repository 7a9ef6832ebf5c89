"""Per-(shard, site) lock front ends: batching, coalescing, and leases.

One :class:`ShardFrontEnd` fronts one protocol site of one shard. It
owns the FIFO of lock acquires routed to that site and drives the
underlying mutex site with *manual* critical-section holds
(``cs_duration=None``), which is what turns a single-resource mutex
instance into a multi-key shard arbiter:

* **Batching.** While the front end waits for the shard's CS, arriving
  acquires pile up in its queue; when the grant lands, up to
  ``batch_max`` of them are served under the *one* authorization.
  Requests for distinct keys are held concurrently (per-key mutual
  exclusion only needs one holder per key, and the shard CS guarantees
  no other site is granting); same-key requests serialize.
* **Coalescing.** If more acquires arrived while a batch was being
  served, the next batch starts immediately — still under the same
  authorization, no protocol traffic at all.
* **Lease cache** (Roucairol–Carvalho-style authorization retention,
  the CR optimization of SNIPPETS.md Snippet 3 lifted to the service
  layer). When the queue drains, the front end *retains* the shard's CS
  for ``lease_window`` time units instead of releasing. An acquire
  landing inside the window is served with zero quorum messages; expiry
  releases the CS so contending sites make progress. ``lease_window=0``
  disables retention (release as soon as the batch drains).

Safety argument, per key: a key is only ever granted by the front end
currently holding its shard's CS, and a front end never releases (or
lets a lease expire) while any of its grants is still held. Two
concurrent holders of one key would therefore require either two sites
in the same shard's CS (excluded by the shard mutex — every algorithm
in the registry is verified for exactly this) or one front end granting
a key twice concurrently (excluded by the same-key serialization in
:meth:`ShardFrontEnd._serve_batch`).

Crash handling (DESIGN.md §10): when the hosted site crashes, the front
end cancels every pending hold/lease timer (timers scheduled through
``view.schedule_call`` are raw simulator events, *not* crash-suppressed
like ``Node.set_timer`` — an uncancelled lease timer would release a CS
the recovered site no longer holds) and hands its work back to the
service split two ways: *stranded* acquires (queued or batched but not
yet granted) for failover to a surviving site, and *orphaned* holds
(granted, unreleased) whose leases the service revokes by bumping the
per-key fencing epoch. Every grant is stamped with the fencing epoch
captured when its key group was formed, so a stale front end replaying
pre-crash state cannot serve a grant against a revoked lease — the
online checker refuses the stale token.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.errors import ProtocolError
from repro.mutex.base import MutexSite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.locks.service import LockService
    from repro.locks.substrate import ShardView
    from repro.substrate import TimerHandle

__all__ = ["LockRequest", "ShardFrontEnd"]


class LockRequest:
    """One client's acquire of one named lock, from submit to resolution.

    A request resolves one of three ways: *completed* (granted and
    released), *orphaned* (granted, then its front end crashed mid-hold
    — the lease is fenced off at ``orphan_time``), or *aborted* (never
    granted before the retry budget or deadline ran out). ``request_id``
    is the idempotence token: re-submissions after a failover carry the
    same id, and the service drops duplicates so a retried acquire can
    never be granted twice.
    """

    __slots__ = (
        "client",
        "key",
        "shard",
        "site",
        "hold",
        "submit_time",
        "grant_time",
        "release_time",
        "request_id",
        "attempts",
        "fence",
        "orphan_time",
        "abort_time",
    )

    def __init__(
        self, client: int, key: str, shard: int, site: int, hold: float,
        submit_time: float, request_id: int = 0,
    ) -> None:
        self.client = client
        self.key = key
        self.shard = shard
        self.site = site
        self.hold = hold
        self.submit_time = submit_time
        self.grant_time: Optional[float] = None
        self.release_time: Optional[float] = None
        #: Idempotent re-submission token (unique per acquire, stable
        #: across retries).
        self.request_id = request_id
        #: Failover re-submissions so far.
        self.attempts = 0
        #: Fencing epoch stamped at grant (see KeyConformanceChecker).
        self.fence = 0
        #: Set when the granting front end crashed before release.
        self.orphan_time: Optional[float] = None
        #: Set when the service gave up retrying (deadline/attempts).
        self.abort_time: Optional[float] = None

    @property
    def complete(self) -> bool:
        """True once the lock was granted and released."""
        return self.release_time is not None

    @property
    def granted(self) -> bool:
        return self.grant_time is not None

    @property
    def orphaned(self) -> bool:
        return self.orphan_time is not None

    @property
    def aborted(self) -> bool:
        return self.abort_time is not None

    @property
    def finished(self) -> bool:
        """True once the request reached any terminal state."""
        return self.complete or self.orphaned or self.aborted

    @property
    def wait_time(self) -> float:
        """Submit-to-grant latency."""
        assert self.grant_time is not None
        return self.grant_time - self.submit_time

    def __repr__(self) -> str:
        return (
            f"LockRequest(client={self.client}, key={self.key!r}, "
            f"shard={self.shard}, site={self.site}, t={self.submit_time:g})"
        )


class _KeyGroup:
    """Same-key slice of one batch: head is granted, tail serializes.

    ``fence`` is the per-key fencing epoch captured when the group was
    formed under the live authorization; every grant from this group
    carries it, which is what lets the conformance checker refuse grants
    issued from pre-crash state after the key's lease was revoked.
    """

    __slots__ = ("key", "fence", "requests")

    def __init__(self, key: str, fence: int) -> None:
        self.key = key
        self.fence = fence
        self.requests: List[LockRequest] = []


class _FrontEndState(enum.Enum):
    IDLE = "idle"          # not holding, nothing requested
    WAITING = "waiting"    # mutex request in flight
    HOLDING = "holding"    # in the shard CS, serving a batch
    LEASING = "leasing"    # in the shard CS, queue empty, lease ticking
    CRASHED = "crashed"    # hosted site down; service rerouted the work


class ShardFrontEnd:
    """Multiplexes one site's lock acquires onto its shard mutex site."""

    __slots__ = (
        "service",
        "view",
        "shard",
        "site_id",
        "mutex_site",
        "batch_max",
        "lease_window",
        "queue",
        "state",
        "_groups",
        "_timers",
        "_lease_timer",
    )

    def __init__(
        self,
        service: "LockService",
        view: "ShardView",
        mutex_site: MutexSite,
        batch_max: int,
        lease_window: float,
    ) -> None:
        self.service = service
        self.view = view
        self.shard = view.index
        self.site_id = mutex_site.site_id
        self.mutex_site = mutex_site
        self.batch_max = batch_max
        self.lease_window = lease_window
        self.queue: Deque[LockRequest] = deque()
        self.state = _FrontEndState.IDLE
        #: Key groups of the in-flight batch that still hold their lock.
        self._groups: Dict[str, _KeyGroup] = {}
        #: Pending hold-expiry timers by key (cancelled on crash).
        self._timers: Dict[str, "TimerHandle"] = {}
        self._lease_timer: Optional["TimerHandle"] = None

    # -- intake ---------------------------------------------------------------

    def enqueue(self, request: LockRequest) -> None:
        """Accept one routed acquire; drives the mutex as needed."""
        if self.state is _FrontEndState.CRASHED:
            raise ProtocolError(
                f"shard {self.shard} site {self.site_id} received an "
                "acquire while crashed; the router must pick live sites"
            )
        self.queue.append(request)
        if self.state is _FrontEndState.IDLE:
            self.state = _FrontEndState.WAITING
            self.service.stats.quorum_rounds += 1
            self.mutex_site.submit_request()
        elif self.state is _FrontEndState.LEASING:
            # Authorization retained from the previous batch: serve with
            # zero protocol messages.
            self._lease_timer.cancel()
            self._lease_timer = None
            self.service.stats.lease_hits += 1
            self.state = _FrontEndState.HOLDING
            self._serve_batch()
        # WAITING/HOLDING: the request rides the pending grant or the
        # batch chain — no additional protocol work.

    # -- mutex callbacks --------------------------------------------------------

    def on_granted(self) -> None:
        """The shard mutex admitted this site (listener ``on_enter``)."""
        if self.state is not _FrontEndState.WAITING:
            raise ProtocolError(
                f"shard {self.shard} site {self.site_id} granted in state "
                f"{self.state.value}"
            )
        self.state = _FrontEndState.HOLDING
        self._serve_batch()

    # -- crash lifecycle ---------------------------------------------------------

    def on_site_crashed(self) -> Tuple[List[LockRequest], List[LockRequest]]:
        """Tear down after the hosted site crashed.

        Cancels every pending hold and lease timer (they are raw
        simulator events and would otherwise fire against the dead
        site), empties the queue and batch state, and returns
        ``(stranded, orphaned)``: acquires that never got their grant
        (for the service to fail over) and granted-but-unreleased holds
        (for the service to fence off).
        """
        if self._lease_timer is not None:
            self._lease_timer.cancel()
            self._lease_timer = None
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        stranded: List[LockRequest] = []
        orphaned: List[LockRequest] = []
        for group in self._groups.values():
            rows = group.requests
            if rows and rows[0].granted and not rows[0].complete:
                orphaned.append(rows[0])
                stranded.extend(rows[1:])
            else:
                stranded.extend(rows)
        self._groups.clear()
        stranded.extend(self.queue)
        self.queue.clear()
        self.state = _FrontEndState.CRASHED
        return stranded, orphaned

    def on_site_recovered(self) -> None:
        """The hosted site is back (clean, rejoining); accept work again.
        Its backlog was rerouted at the crash: drop it, never replay it."""
        self.mutex_site.backlog = 0
        self.state = _FrontEndState.IDLE

    # -- batch machinery --------------------------------------------------------

    def _serve_batch(self) -> None:
        """Grant up to ``batch_max`` queued acquires under the held CS.

        Distinct keys are held concurrently; same-key acquires within
        the batch serialize (grant → hold → release → next).
        """
        queue = self.queue
        if not queue:
            raise ProtocolError(
                f"shard {self.shard} site {self.site_id} began an empty batch"
            )
        checker = self.service.checker
        for _ in range(min(self.batch_max, len(queue))):
            request = queue.popleft()
            group = self._groups.get(request.key)
            if group is None:
                group = _KeyGroup(request.key, checker.fence_of(request.key))
                self._groups[request.key] = group
            group.requests.append(request)
        stats = self.service.stats
        stats.batches += 1
        for group in list(self._groups.values()):
            if not group.requests[0].granted:
                self._grant_head(group)

    def _grant_head(self, group: _KeyGroup) -> None:
        request = group.requests[0]
        request.grant_time = self.view.now
        request.fence = group.fence
        self.service.on_grant(request)
        self._timers[request.key] = self.view.schedule_call(
            request.hold, self._release_one, (group,), "lock-hold"
        )

    def _release_one(self, group: _KeyGroup) -> None:
        self._timers.pop(group.key, None)
        request = group.requests.pop(0)
        request.release_time = self.view.now
        self.service.on_release(request)
        if group.requests:
            self._grant_head(group)
            return
        del self._groups[group.key]
        if not self._groups:
            self._batch_done()

    def _batch_done(self) -> None:
        if self.queue:
            # Coalesce: more work arrived while the batch was held —
            # serve it under the same authorization.
            self.service.stats.coalesced_batches += 1
            self._serve_batch()
            return
        if self.lease_window > 0:
            self.state = _FrontEndState.LEASING
            self._lease_timer = self.view.schedule_call(
                self.lease_window, self._lease_expire, (), "lock-lease"
            )
            return
        self._release_shard()

    def _lease_expire(self) -> None:
        self._lease_timer = None
        self.service.stats.lease_expiries += 1
        self._release_shard()

    def _release_shard(self) -> None:
        self.state = _FrontEndState.IDLE
        self.mutex_site.release_cs()
        # A release can hand the CS straight onward; anything queued
        # here after this instant re-enters through enqueue() → IDLE.
        if self.queue:
            self.state = _FrontEndState.WAITING
            self.service.stats.quorum_rounds += 1
            self.mutex_site.submit_request()
