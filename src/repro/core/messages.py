"""The seven control messages of the delay-optimal algorithm (Section 3.1).

Every message is tagged with the :class:`~repro.mutex.messages.Priority`
(timestamp) of the request it concerns. The paper's protocol discards
stale control traffic ("if an inquire or fail ... arrives after S_j has
sent release ..., S_j just ignores it"); carrying the concerned request's
timestamp makes every staleness check a single equality comparison, which
is also how a production implementation over UDP/TCP would do it.

Messages are slotted dataclasses, immutable **by convention**: nothing in
the codebase mutates a message after construction (they are shared across
fanouts, trace records, and explorer world clones on that premise), but
the classes are not ``frozen=True`` — a frozen dataclass ``__init__``
routes every field through ``object.__setattr__``, which triples the
construction cost of the tens of thousands of messages a saturation run
allocates. ``unsafe_hash=True`` keeps the generated field-tuple ``__eq__``
and ``__hash__`` of the frozen version, so equality, hashing, reprs, and
the :func:`dataclasses.fields`-driven trace/wire codec are unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.common import Priority, slotted_dataclass

SiteId = int


@slotted_dataclass(unsafe_hash=True)
class Request:
    """``request(sn, i)``: ``S_i`` asks an arbiter's permission to enter CS."""

    priority: Priority

    type_name = "request"


@slotted_dataclass(unsafe_hash=True)
class Reply:
    """``reply(j)``: permission of arbiter ``S_j`` granted to a requester.

    ``forwarded_by`` is ``None`` for a direct grant; for a proxied grant it
    names the site that exited the CS and forwarded the permission on the
    arbiter's behalf (the paper's headline mechanism). ``grantee`` is the
    timestamp of the request being granted, so a late forwarded reply for a
    finished request is discarded instead of corrupting a newer one.

    ``epoch`` is the arbiter's **tenure number** for this grant — a
    reconstruction extension (see ``repro.core.site``): once replies can
    arrive through proxy channels, FIFO and request timestamps alone
    cannot distinguish two tenures of the *same* request at the same
    arbiter (grant → yield → re-grant), and tenure-tagged traffic is what
    keeps stale transfers/inquires of the earlier tenure from being
    honoured in the later one. The exhaustive interleaving explorer found
    the concrete violation (see DESIGN.md).
    """

    arbiter: SiteId
    grantee: Priority
    forwarded_by: Optional[SiteId] = None
    epoch: int = 0

    type_name = "reply"


@slotted_dataclass(unsafe_hash=True)
class Release:
    """``release(i, j)``: ``S_i`` exited the CS.

    ``transferred_to`` carries the request to which ``S_i`` forwarded this
    arbiter's permission (the paper's ``j`` parameter), or ``None`` for the
    paper's ``max`` — meaning the permission went back to the arbiter.
    ``releaser`` is the timestamp of the completed request, used by the
    arbiter to assert the release matches its current lock.
    """

    releaser: Priority
    transferred_to: Optional[Priority] = None
    #: Tenure under which the releaser held this arbiter's permission.
    epoch: int = 0

    type_name = "release"


@slotted_dataclass(unsafe_hash=True)
class Inquire:
    """``inquire(j)``: arbiter ``S_j`` asks its lock holder whether it has
    succeeded in collecting all replies (and will otherwise yield)."""

    arbiter: SiteId
    target: Priority
    #: Tenure being inquired; a holder ignores inquires for other tenures.
    epoch: int = 0

    type_name = "inquire"


@slotted_dataclass(unsafe_hash=True)
class Fail:
    """``fail(j)``: arbiter ``S_j`` cannot grant this request now because a
    higher-priority request holds or precedes it."""

    arbiter: SiteId
    target: Priority

    type_name = "fail"


@slotted_dataclass(unsafe_hash=True)
class Yield:
    """``yield(i)``: the lock holder returns the arbiter's permission so a
    higher-priority request can proceed."""

    yielder: Priority
    #: Tenure being yielded; the arbiter ignores yields for other tenures.
    epoch: int = 0

    type_name = "yield"


@slotted_dataclass(unsafe_hash=True)
class Transfer:
    """``transfer(k, j)``: arbiter ``S_j`` asks its lock holder to send a
    ``reply(j)`` to beneficiary ``S_k`` when it exits the CS.

    ``holder`` is the lock holder's request timestamp: a transfer that
    reaches a site after it released (or yielded) the arbiter is outdated
    and must be ignored (paper Section 3.2).
    """

    beneficiary: Priority
    arbiter: SiteId
    holder: Priority
    #: The holder's tenure this instruction belongs to; the holder only
    #: honours transfers of its *current* tenure (a transfer delayed
    #: across a yield/re-acquire cycle must die — see Reply.epoch).
    holder_epoch: int = 0

    type_name = "transfer"


@slotted_dataclass(unsafe_hash=True)
class FailureNotice:
    """``failure(i)``: broadcast when site ``failed_site`` is detected down
    (Section 6 recovery protocol)."""

    failed_site: SiteId

    type_name = "failure"


@slotted_dataclass(unsafe_hash=True)
class Probe:
    """Recovery reconciliation (fault-tolerance extension, not in paper).

    After a failure, an arbiter cannot know whether a permission handoff
    that was in flight through the dead site completed: the forwarded
    ``reply`` and the ``release`` travel on different channels, so a crash
    can deliver one and lose the other. The arbiter probes the possible
    holder(s): "does your request ``target`` hold my permission?". The
    probe/ack exchange is safe because it shares FIFO channels with the
    yield/release traffic it might race against (see
    :mod:`repro.core.faults`).
    """

    arbiter: SiteId
    target: Priority
    #: Tenure the arbiter expects the probed grant to carry.
    epoch: int = 0

    type_name = "probe"


@slotted_dataclass(unsafe_hash=True)
class ProbeAck:
    """Answer to a :class:`Probe`: whether the probed site's request
    ``target`` currently holds the arbiter's permission."""

    arbiter: SiteId
    target: Priority
    holds: bool

    type_name = "probe-ack"


@slotted_dataclass(unsafe_hash=True)
class RejoinProbe:
    """Rejoin reconciliation (fault-tolerance extension, not in paper).

    A crash-recovered site rebuilds its arbiter role from nothing — but
    its *pre-crash* permission may still be held by a live site (even
    one inside the CS, if recovery completes within a CS residency).
    Granting from the fresh free lock would then double-grant; the model
    checker (:mod:`repro.verify.explore`) finds the overlap in an
    8-action schedule. So before its first grant the recovered arbiter
    asks every live site "do you hold my permission?", and defers
    arriving requests to its queue until all answers are in.
    """

    arbiter: SiteId

    type_name = "rejoin-probe"


@slotted_dataclass(unsafe_hash=True)
class RejoinAck:
    """Answer to a :class:`RejoinProbe`.

    ``responder`` is the answering site; ``holder`` is its current
    request if it holds the recovered arbiter's permission, else
    ``None``; ``epoch`` is the tenure that grant carried, so the
    adopting arbiter can resume the pre-crash tenure numbering and its
    later inquires/transfers pass the holder's staleness checks.
    Race-free on the same FIFO-sharing argument as :class:`Probe`: any
    release or yield the holder sent before the ack reaches the arbiter
    first.
    """

    arbiter: SiteId
    responder: SiteId
    holder: Optional[Priority]
    epoch: int = 0

    type_name = "rejoin-ack"
