"""Fault-tolerant extension of the delay-optimal algorithm (Section 6).

The paper makes the algorithm resilient in two steps:

1. plug in a fault-tolerant quorum construction (tree, HQC, grid-set,
   RST) so a live quorum still exists when sites fail;
2. add a ``failure(i)`` notification protocol that cleans the failed
   site's residue out of every data structure: a requester whose
   ``req_set`` contains the failed site re-runs quorum construction
   (paper step 1); an arbiter removes the failed site's request from its
   ``req_queue`` (case 1), drops transfers benefiting it (case 2), and
   releases the lock if the dead site held it (case 3).

**A reproduction finding.** The paper's Section 6 cleanup is *not
sufficient* for its own Section 3 algorithm. The delay-optimal handoff
makes a permission change hands with two messages sent by the exiting
site over different channels — the forwarded ``reply`` to the
beneficiary and the ``release`` to the arbiter. A crash of the exiting
site between those deliveries leaves the arbiter and the beneficiary
with divergent views, and the paper's case 3 ("grant the next waiter")
can then either wedge a live site (the arbiter installed the beneficiary
but the forwarded reply died with the proxy) or grant a second
permission while the forwarded one is in use (the reply arrived but the
release did not). Stress tests in ``tests/`` reproduce both races.

This implementation therefore adds a **probe/ack reconciliation round**:

* whenever an arbiter learns of a failure while its lock is held by a
  *live* site, it probes that site — "does your request hold my
  permission?"; a *no* answer re-issues the (possibly lost) grant;
* when the lock holder itself is the dead site, the arbiter probes every
  live queued requester before granting anew — a *yes* answer means the
  dead proxy had already forwarded the permission, and the arbiter
  adopts that site as its lock holder instead of double-granting;
* a crash-*recovered* arbiter runs the same reconciliation on rejoin
  (``RejoinProbe``/``RejoinAck``): its pre-crash permission may still be
  held by a live site — even one inside the CS, when the whole
  crash/recover cycle fits inside a single CS residency — so the rebuilt
  arbiter defers arriving requests until every live peer has answered
  "do you hold my permission?", adopting the holder (and its tenure
  number) on a *yes*. The model checker in :mod:`repro.verify.explore`
  found the double-grant this prevents (see DESIGN.md).

Both exchanges are race-free because the probe/ack shares a FIFO channel
with the yield/release traffic it could conflict with: any yield or
release the probed site issued earlier is processed by the arbiter
*before* the ack, so a stale ack is always detectable by a lock
comparison. The fail-stop model (in-flight messages from a crashed site
are lost, never delayed) makes a *no* answer final.

Further engineering additions the paper leaves implicit:

* a requester that re-selects its quorum first releases every permission
  it held and restarts with a fresh timestamp; grants that stray in from
  abandoned arbiters are answered with an immediate release, so the
  switch is self-cleaning;
* a site's newer request supersedes its older queued one at an arbiter
  (a restarted site may briefly have both in flight);
* a release whose ``transferred_to`` names a purged request degrades to
  a plain release.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.common import Priority, bundle_or_single
from repro.core.messages import (
    FailureNotice,
    Inquire,
    Probe,
    ProbeAck,
    RejoinAck,
    RejoinProbe,
    Release,
    Reply,
    Request,
    Transfer,
)
from repro.core.site import CaoSinghalSite
from repro.mutex.base import DurationSpec, RunListener, SiteState
from repro.quorums.coterie import QuorumSystem
from repro.substrate import SiteId


class FaultTolerantSite(CaoSinghalSite):
    """Delay-optimal mutex site with the Section 6 failure handling.

    Takes the whole :class:`~repro.quorums.coterie.QuorumSystem` (not a
    fixed quorum) so it can re-run quorum construction around failures.
    """

    algorithm_name = "cao-singhal-ft"

    def __init__(
        self,
        site_id: SiteId,
        quorum_system: QuorumSystem,
        cs_duration: DurationSpec = 0.1,
        listener: Optional[RunListener] = None,
    ) -> None:
        self.quorum_system = quorum_system
        super().__init__(
            site_id,
            quorum_system.quorum_for(site_id),
            cs_duration,
            listener,
        )
        self.known_failed: Set[SiteId] = set()
        #: True when no live quorum avoiding the failures exists for us.
        self.inaccessible = False
        #: True between crash-recovery and readmission: the site serves
        #: its arbiter role but defers its own requests (peers would drop
        #: them while they still mark us failed).
        self.rejoining = False
        #: Outstanding case-3 recovery: the queued requests still to be
        #: probed before the dead holder's permission is granted anew.
        self._probe_pending: Optional[Set[Priority]] = None
        #: Outstanding rejoin reconciliation: the live peers whose
        #: :class:`~repro.core.messages.RejoinAck` we still await before
        #: the rebuilt arbiter may grant (see ``reset_after_recovery``).
        self._rejoin_waiting: Set[SiteId] = set()
        #: Requests that arrived during the rejoin round, replayed
        #: through normal A.2 handling once the round resolves.
        self._rejoin_deferred: List[Request] = []

    # ------------------------------------------------------------------
    # Failure notification handling (Section 6)
    # ------------------------------------------------------------------

    def notify_failure(self, failed_site: SiteId) -> None:
        """Entry point used by detectors/injectors on the local site."""
        self._handle_failure_notice(FailureNotice(failed_site=failed_site))

    def _handle_failure_notice(self, msg: FailureNotice) -> None:
        failed = msg.failed_site
        if failed == self.site_id or failed in self.known_failed:
            return
        self.known_failed.add(failed)
        self._arbiter_cleanup(failed)
        self._requester_cleanup(failed)
        if self._rejoin_waiting:
            # A peer we were waiting on for a rejoin ack died; its answer
            # will never come (fail-stop), so stop waiting for it.
            self._rejoin_waiting.discard(failed)
            if not self._rejoin_waiting:
                self._resolve_rejoin_round()

    # -- arbiter side (paper cases 1-3 + probe reconciliation) -----------------

    def _arbiter_cleanup(self, failed: SiteId) -> None:
        arb = self.arbiter
        # Buffered out-of-order releases from the dead site are moot.
        self._pending_releases = {
            p: r for p, r in self._pending_releases.items() if p.site != failed
        }
        # Case 2: stop planning to forward anything to the dead site.
        self.req.tran_stack.drop_beneficiary(failed)

        # Case 1: purge every queued request of the dead site (a restarted
        # site can briefly have two).
        old_head = arb.req_queue.head()
        removed_any = False
        while arb.req_queue.remove_site(failed) is not None:
            removed_any = True

        if arb.is_free:
            return

        if self._probe_pending is not None:
            # A recovery round is already running: retire candidates that
            # just died and resolve if none remain.
            self._probe_pending = {
                p for p in self._probe_pending if p.site not in self.known_failed
            }
            if not self._probe_pending:
                self._probe_pending = None
                self._grant_next_or_free()
            return

        if arb.lock.site in self.known_failed:
            # Case 3, hardened: the dead site held our permission, but it
            # may already have forwarded it. Reconcile before re-granting.
            self._begin_lock_recovery()
            return

        # The lock holder is alive, but its grant may have travelled
        # through the dead site as a forwarded reply and been lost with
        # it. Ask; a "no" answer re-issues the grant (FIFO makes a stale
        # "no" detectable — see module docstring).
        self.send(
            arb.lock.site,
            Probe(arbiter=self.site_id, target=arb.lock, epoch=arb.epoch),
        )

        # Paper case-1 tail: the dead site was next in line, so the
        # transfer previously sent to the (live) holder names a ghost;
        # replace it, inquiring when the new head outranks the holder.
        new_head = arb.req_queue.head()
        if (
            removed_any
            and old_head is not None
            and old_head.site == failed
            and new_head is not None
            and self.enable_transfer
        ):
            parts: List[object] = [
                Transfer(
                    beneficiary=new_head,
                    arbiter=self.site_id,
                    holder=arb.lock,
                    holder_epoch=arb.epoch,
                )
            ]
            if new_head < arb.lock:
                parts.append(
                    Inquire(
                        arbiter=self.site_id, target=arb.lock, epoch=arb.epoch
                    )
                )
            self.send(
                arb.lock.site, bundle_or_single(*parts), piggybacked=len(parts) > 1
            )

    def _begin_lock_recovery(self) -> None:
        """Probe live waiters for a forwarded permission before re-granting."""
        arb = self.arbiter
        candidates = {
            p for p in arb.req_queue if p.site not in self.known_failed
        }
        if not candidates:
            self._probe_pending = None
            self._grant_next_or_free()
            return
        self._probe_pending = set(candidates)
        for priority in sorted(candidates):
            # A grant forwarded by the dead holder would carry the tenure
            # after the dead holder's: epoch + 1.
            self.send(
                priority.site,
                Probe(
                    arbiter=self.site_id,
                    target=priority,
                    epoch=arb.epoch + 1,
                ),
            )

    def _grant_next_or_free(self) -> None:
        """Grant the best live waiter, or free the permission."""
        arb = self.arbiter
        while arb.req_queue and arb.req_queue.head().site in self.known_failed:
            arb.req_queue.pop_head()  # defensive; cleanup purges these
        if not arb.req_queue:
            arb.lock = Priority.maximum()
            return
        new_lock = arb.req_queue.pop_head()
        arb.install(new_lock)
        self._grant(new_lock)

    def _handle_probe(self, src: SiteId, msg: Probe) -> None:
        """Requester side: report whether ``target`` holds ``src``'s grant
        under the probed tenure."""
        holds = (
            self.req.priority == msg.target
            and bool(self.req.replied.get(msg.arbiter))
            and self.req.grant_epoch.get(msg.arbiter) == msg.epoch
        )
        self.send(
            src, ProbeAck(arbiter=msg.arbiter, target=msg.target, holds=holds)
        )

    def _handle_probe_ack(self, src: SiteId, msg: ProbeAck) -> None:
        """Arbiter side: resolve a reconciliation round."""
        arb = self.arbiter
        if self._probe_pending is not None:
            if msg.target not in self._probe_pending:
                return  # stale ack from an earlier round
            self._probe_pending.discard(msg.target)
            if msg.holds:
                self._adopt_forwarded_holder(msg.target)
            elif not self._probe_pending:
                self._probe_pending = None
                self._grant_next_or_free()
            return
        # Holder-reconciliation mode: re-issue a grant that died with the
        # proxy. A stale ack cannot slip through: the lock comparison
        # fails after any yield/release the holder sent before the ack
        # (FIFO ordering on the holder->arbiter channel).
        if (
            not msg.holds
            and arb.lock == msg.target
            and msg.target.site not in self.known_failed
        ):
            self._grant(msg.target)

    def _adopt_forwarded_holder(self, priority: Priority) -> None:
        """The probed site already holds the dead proxy's forwarded grant."""
        arb = self.arbiter
        self._probe_pending = None
        arb.req_queue.remove(priority)
        arb.install(priority)
        stashed = self._pending_releases.pop(priority, None)
        if stashed is not None:
            self._handle_release(priority.site, stashed)
            return
        head = arb.req_queue.head()
        if head is not None and self.enable_transfer:
            parts: List[object] = [
                Transfer(
                    beneficiary=head,
                    arbiter=self.site_id,
                    holder=priority,
                    holder_epoch=arb.epoch,
                )
            ]
            if head < priority:
                parts.append(
                    Inquire(
                        arbiter=self.site_id, target=priority, epoch=arb.epoch
                    )
                )
            self.send(
                priority.site, bundle_or_single(*parts), piggybacked=len(parts) > 1
            )

    # -- requester side (paper step 1) -----------------------------------------

    def _requester_cleanup(self, failed: SiteId) -> None:
        if failed not in self.quorum:
            return
        if self.state is SiteState.REQUESTING:
            self._abort_and_restart()
        # IN_CS: finish normally — the exit protocol must run over the
        # quorum that granted us (the dead member drops its release
        # harmlessly). IDLE: nothing — every new request computes a fresh
        # quorum in _begin_request.

    def _adopt_new_quorum(self, restart: bool) -> bool:
        """Re-run quorum construction avoiding known failures.

        Returns False (and marks the site inaccessible) when the
        construction cannot produce a live quorum.
        """
        new_quorum = self.quorum_system.quorum_avoiding(
            self.site_id, self.known_failed
        )
        if new_quorum is None:
            self.inaccessible = True
            return False
        self.inaccessible = False
        self.quorum = frozenset(new_quorum)
        self._quorum_sorted = tuple(sorted(self.quorum))
        if restart and self.state is SiteState.REQUESTING:
            self._begin_request()
        return True

    def _begin_request(self) -> None:
        """A.1 with a fresh quorum: every request (re)runs the quorum
        construction against the current failure view, so rejoined sites
        are readmitted and newly failed ones avoided without any special
        casing."""
        if not self._adopt_new_quorum(restart=False):
            # Inaccessible: stay REQUESTING with nothing in flight; a
            # later notify_recovery retries via _abort_and_restart.
            self.max_seq_seen += 1
            self.req.reset_for(
                Priority(self.max_seq_seen, self.site_id), self.quorum
            )
            return
        super()._begin_request()

    def _abort_and_restart(self) -> None:
        """Release everything held and re-request over a fresh quorum."""
        assert self.req.priority is not None
        old_priority = self.req.priority
        for arbiter, replied in sorted(self.req.replied.items()):
            if replied and arbiter not in self.known_failed:
                # "Releases all the resources it has gotten": a release
                # with no transfer frees the arbiter for its next waiter.
                self.send(
                    arbiter,
                    Release(
                        releaser=old_priority,
                        transferred_to=None,
                        epoch=self.req.grant_epoch.get(arbiter, 0),
                    ),
                )
        self.req.tran_stack.clear()
        self.req.inq_pending.clear()
        if self._adopt_new_quorum(restart=False):
            self._begin_request()
        # else: inaccessible; the pending request stays unserved, which the
        # fault-tolerance experiments count explicitly.

    # ------------------------------------------------------------------
    # Crash-recovery (rejoin) — extension beyond the paper
    # ------------------------------------------------------------------

    def notify_recovery(self, recovered: SiteId) -> None:
        """A previously failed site is back and clean.

        Safe to honour only after this site has already processed
        ``failure(recovered)`` — the cleanup is what guarantees nobody
        still holds one of the recovered site's pre-crash grants. When
        the recovery notice beats the failure notice (a short downtime),
        we force the cleanup first, exactly as if the failure had been
        detected, then readmit the site. Quorums re-include it lazily:
        the next ``quorum_avoiding`` call simply stops avoiding it.
        """
        if recovered == self.site_id:
            return
        if recovered not in self.known_failed:
            self._handle_failure_notice(FailureNotice(failed_site=recovered))
        self.known_failed.discard(recovered)
        if self.state is SiteState.REQUESTING and self.inaccessible:
            # We were blocked for lack of a live quorum; the rejoin may
            # have restored one — retry over a fresh quorum.
            self._abort_and_restart()
        # Otherwise nothing: a quorum is only (re)computed when a request
        # starts, so an in-flight request keeps the quorum it asked.

    def reset_after_recovery(
        self, known_failed: Optional[Iterable[SiteId]] = None
    ) -> None:
        """Rebuild this site's volatile state after a crash.

        The fail-stop model loses all protocol state; the site rejoins
        with a free arbiter lock, an empty queue, and no request in
        flight. Any CS request that was open at crash time is abandoned
        (reported to the listener so metrics close the record); the local
        backlog of not-yet-started requests is preserved and resumes.
        ``known_failed`` seeds the failure view (in a deployment the
        rejoin handshake supplies it; the injector does here).
        """
        from repro.core.state import ArbiterState, RequesterState

        if self.state is not SiteState.IDLE:
            self.listener.on_abandon(self.site_id, self.now)
        self.state = SiteState.IDLE
        self.arbiter = ArbiterState()
        self.req = RequesterState()
        self._pending_releases.clear()
        self._probe_pending = None
        self.known_failed = set(known_failed or ()) - {self.site_id}
        self.inaccessible = False
        self._adopt_new_quorum(restart=False)
        # Defer our own requests until peers have readmitted us: a request
        # sent now would be dropped by their known-failed filter.
        self.rejoining = True
        # The arbiter role must NOT resume from the fresh free lock: our
        # *pre-crash* permission may still be held by a live site — even
        # one inside the CS, when recovery completes within a single CS
        # residency (the model checker finds the double-grant in an
        # 8-action schedule; see DESIGN.md). Before the first grant, ask
        # every live peer whether it holds our permission and defer
        # arriving requests until all answers are in.
        self._rejoin_deferred = []
        peers = {
            s
            for s in range(self.quorum_system.n)
            if s != self.site_id and s not in self.known_failed
        }
        self._rejoin_waiting = peers
        for peer in sorted(peers):
            self.send(peer, RejoinProbe(arbiter=self.site_id))

    def complete_rejoin(self) -> None:
        """Peers have processed our recovery; resume requesting."""
        self.rejoining = False
        self._maybe_start()

    def _handle_rejoin_probe(self, src: SiteId, msg: RejoinProbe) -> None:
        """Requester side: report whether we hold the rebuilt arbiter's
        pre-crash permission, and under which tenure."""
        holds = self.req.priority is not None and bool(
            self.req.replied.get(msg.arbiter)
        )
        self.send(
            src,
            RejoinAck(
                arbiter=msg.arbiter,
                responder=self.site_id,
                holder=self.req.priority if holds else None,
                epoch=self.req.grant_epoch.get(msg.arbiter, 0)
                if holds
                else 0,
            ),
        )

    def _handle_rejoin_ack(self, src: SiteId, msg: RejoinAck) -> None:
        """Arbiter side: account one answer; resolve when all are in."""
        if src not in self._rejoin_waiting:
            return  # stale ack from an already-resolved round
        self._rejoin_waiting.discard(src)
        if msg.holder is not None and self.arbiter.is_free:
            # Our pre-crash permission is alive out there: adopt its
            # holder and *resume the pre-crash tenure numbering*, so our
            # later inquires and transfers pass the holder's staleness
            # checks (a fresh epoch would make them die as ghosts — a
            # liveness hole). At most one site can answer positively: a
            # permission has one holder at a time and in-flight handoffs
            # die with their proxy (fail-stop), so the round is decided.
            self._rejoin_waiting = set()
            self.arbiter.lock = msg.holder
            self.arbiter.epoch = msg.epoch
        if not self._rejoin_waiting:
            self._resolve_rejoin_round()

    def _resolve_rejoin_round(self) -> None:
        """All answers in (or moot): replay the deferred requests through
        the normal A.2 path against the reconciled lock state."""
        deferred, self._rejoin_deferred = self._rejoin_deferred, []
        for msg in deferred:
            self._handle_request(msg)

    def _maybe_start(self) -> None:
        if self.rejoining:
            return
        super()._maybe_start()

    # ------------------------------------------------------------------
    # Overrides tolerating quorum-switch and crash races
    # ------------------------------------------------------------------

    def _record_reply(self, msg: Reply) -> None:
        """Accept in-quorum replies; free arbiters that grant ghosts.

        After a quorum switch, arbiters of the abandoned quorum may still
        grant our old (or even current) request. Leaving them locked on a
        ghost would wedge every other site that quorums through them, so
        any grant we cannot use is answered with an immediate release.
        """
        usable = (
            self.req.priority is not None
            and msg.grantee == self.req.priority
            and self.state is SiteState.REQUESTING
            and msg.arbiter in self.req.replied
            # An inaccessible site can never complete its quorum: hoarding
            # a grant would wedge the (live) arbiter for everyone else.
            and not self.inaccessible
        )
        if usable:
            if self.req.replied.get(msg.arbiter):
                return  # duplicate grant (re-issued after a probe): idempotent
            super()._record_reply(msg)
            return
        if msg.arbiter != self.site_id and msg.arbiter not in self.known_failed:
            self.send(
                msg.arbiter,
                Release(
                    releaser=msg.grantee, transferred_to=None, epoch=msg.epoch
                ),
            )
        elif msg.arbiter == self.site_id:
            # Local ghost grant: apply the release directly.
            self._handle_release(
                self.site_id,
                Release(
                    releaser=msg.grantee, transferred_to=None, epoch=msg.epoch
                ),
            )

    def _handle_release(self, src: SiteId, msg: Release) -> None:
        """Tolerate the races the failure protocol introduces."""
        arb = self.arbiter
        if arb.lock != msg.releaser and msg.releaser not in arb.req_queue:
            # Ghost release: the lock already moved on (e.g. both the
            # failure cleanup and the releaser freed it). Safe to drop.
            return
        if (
            msg.transferred_to is not None
            and arb.lock == msg.releaser
            and msg.transferred_to not in arb.req_queue
        ):
            # The reply was forwarded to a request we purged — because its
            # site failed, or because the site restarted onto a new quorum
            # and its newer request superseded this one. Either way the
            # beneficiary cannot use the grant (it answers with a
            # ghost-release if alive), so the permission returns to us.
            msg = Release(
                releaser=msg.releaser, transferred_to=None, epoch=msg.epoch
            )
        super()._handle_release(src, msg)

    def _handle_yield(self, msg) -> None:
        """A.4, tolerant of crash races.

        The base algorithm treats "yield with no better waiter" as a
        protocol bug — an arbiter only inquires when a higher-priority
        request is queued. With failures that premise breaks: the request
        that triggered the inquire may have been purged by the failure
        cleanup between the inquire and the yield. The arbiter then simply
        re-grants the yielder.
        """
        arb = self.arbiter
        if msg.yielder != arb.lock or msg.epoch != arb.epoch:
            return
        if msg.yielder.site in self.known_failed:
            # The yielder itself died; free the permission.
            self._grant_next_or_free()
            return
        arb.req_queue.push(arb.lock)
        new_lock = arb.req_queue.pop_head()
        arb.install(new_lock)
        self._grant(new_lock)

    def _handle_request(self, msg: Request) -> None:
        """Drop dead and superseded requests before normal A.2 handling.

        A request from a known-failed site must never (re-)enter the queue
        — a granted ghost would never release. And when a restarted site's
        *newer* request arrives while its pre-restart request still sits
        queued, the old entry is superseded: the site abandoned it and
        will answer any grant for it with a ghost-release anyway, so
        removing it here saves that round trip and keeps the queue free of
        duplicates.
        """
        if self._rejoin_waiting:
            # Mid rejoin-reconciliation: granting now could double-grant
            # a permission a live site still holds from before our crash.
            # Park the request; the round's resolution replays it here.
            self._rejoin_deferred.append(msg)
            return
        if msg.priority.site in self.known_failed:
            return
        arb = self.arbiter
        stale = arb.req_queue.remove_site(msg.priority.site)
        if stale is not None and stale.seq >= msg.priority.seq:
            # Not actually stale (duplicate delivery would be a bug, but
            # never clobber a newer entry with an older message).
            arb.req_queue.push(stale)
            return
        super()._handle_request(msg)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_part(self, src: SiteId, part: object) -> None:
        if isinstance(part, FailureNotice):
            self._handle_failure_notice(part)
        elif isinstance(part, Probe):
            self._handle_probe(src, part)
        elif isinstance(part, ProbeAck):
            self._handle_probe_ack(src, part)
        elif isinstance(part, RejoinProbe):
            self._handle_rejoin_probe(src, part)
        elif isinstance(part, RejoinAck):
            self._handle_rejoin_ack(src, part)
        else:
            super()._dispatch_part(src, part)
