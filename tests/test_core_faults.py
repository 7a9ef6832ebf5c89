"""Tests for the Section 6 failure-handling protocol."""

from __future__ import annotations

import pytest

from repro.common import Priority
from repro.core.faults import FaultTolerantSite
from repro.core.messages import Release, Reply, Request
from repro.ft.chaos import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.quorums.majority import MajorityQuorumSystem
from repro.quorums.tree import TreeQuorumSystem
from repro.sim.network import ConstantDelay
from repro.sim.simulator import Simulator
from repro.verify.invariants import check_mutual_exclusion


def build_ft(quorum_system, cs_duration=0.2, seed=0):
    sim = Simulator(seed=seed, delay_model=ConstantDelay(1.0), trace=True)
    collector = MetricsCollector()
    sites = [
        FaultTolerantSite(i, quorum_system, cs_duration=cs_duration, listener=collector)
        for i in range(quorum_system.n)
    ]
    for s in sites:
        sim.add_node(s)
    sim.start()
    return sim, sites, collector


# -- arbiter-side cleanup (paper cases 1-3) -------------------------------------


def test_case3_dead_lock_holder_triggers_probe_round():
    """Case 3 must reconcile before re-granting: the dead holder may have
    already forwarded the permission (see the module docstring of
    repro.core.faults)."""
    from repro.core.messages import ProbeAck

    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    dead, waiter = Priority(1, 1), Priority(2, 2)
    arbiter._handle_request(Request(dead))
    arbiter._handle_request(Request(waiter))
    assert arbiter.arbiter.lock == dead
    arbiter.notify_failure(1)
    # The live waiter is probed, not yet granted.
    assert arbiter._probe_pending == {waiter}
    assert arbiter.arbiter.lock == dead
    # "No, I don't hold it" -> grant the waiter normally.
    arbiter._handle_probe_ack(
        2, ProbeAck(arbiter=0, target=waiter, holds=False)
    )
    assert arbiter.arbiter.lock == waiter
    assert len(arbiter.arbiter.req_queue) == 0


def test_case3_probe_yes_adopts_forwarded_holder():
    """A waiter that already received the dead proxy's forwarded reply is
    adopted as lock holder instead of being double-granted."""
    from repro.core.messages import ProbeAck

    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    dead, holder = Priority(1, 1), Priority(2, 2)
    arbiter._handle_request(Request(dead))
    arbiter._handle_request(Request(holder))
    arbiter.notify_failure(1)
    sent_before = sim.network.stats.by_type.get("reply", 0)
    arbiter._handle_probe_ack(
        2, ProbeAck(arbiter=0, target=holder, holds=True)
    )
    assert arbiter.arbiter.lock == holder
    assert len(arbiter.arbiter.req_queue) == 0
    # No fresh reply was issued: the forwarded one is the grant.
    assert sim.network.stats.by_type.get("reply", 0) == sent_before


def test_holder_probe_reissues_lost_grant():
    """Failure of a third site triggers holder reconciliation; a 'no'
    answer re-issues the grant that died with the proxy."""
    from repro.core.messages import ProbeAck

    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    holder = Priority(1, 1)
    arbiter._handle_request(Request(holder))
    arbiter.notify_failure(4)  # unrelated failure: reconcile with holder
    assert sim.network.stats.by_type.get("probe", 0) == 1
    before = sim.network.stats.by_type.get("reply", 0)
    arbiter._handle_probe_ack(1, ProbeAck(arbiter=0, target=holder, holds=False))
    assert sim.network.stats.by_type.get("reply", 0) == before + 1
    assert arbiter.arbiter.lock == holder  # lock unchanged, grant re-issued
    # A stale 'no' after the lock moved must be ignored.
    arbiter._handle_probe_ack(
        1, ProbeAck(arbiter=0, target=Priority(9, 9), holds=False)
    )
    assert sim.network.stats.by_type.get("reply", 0) == before + 1


def test_case3_dead_holder_empty_queue_frees_lock():
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    arbiter._handle_request(Request(Priority(1, 1)))
    arbiter.notify_failure(1)
    assert arbiter.arbiter.is_free


def test_case1_dead_queued_request_removed():
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    holder, dead, tail = Priority(1, 1), Priority(2, 2), Priority(3, 3)
    arbiter._handle_request(Request(holder))
    arbiter._handle_request(Request(dead))
    arbiter._handle_request(Request(tail))
    arbiter.notify_failure(2)
    assert list(arbiter.arbiter.req_queue) == [tail]
    assert arbiter.arbiter.lock == holder


def test_case2_transfers_to_dead_site_dropped():
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs, cs_duration=10.0)  # stay in CS while we test
    site = sites[0]
    site.submit_request()
    sim.run(until=3.0)  # collect replies
    from repro.core.messages import Transfer

    arbiter_id = min(site.quorum)
    site._record_transfer(
        Transfer(
            beneficiary=Priority(5, 2),
            arbiter=arbiter_id,
            holder=site.req.priority,
            holder_epoch=site.req.grant_epoch[arbiter_id],
        )
    )
    before = len(site.req.tran_stack)
    site.notify_failure(2)
    assert len(site.req.tran_stack) == before - 1


def test_release_forwarded_to_dead_site_degrades_to_plain_release():
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    holder, dead = Priority(1, 1), Priority(2, 2)
    arbiter._handle_request(Request(holder))
    arbiter._handle_request(Request(dead))
    arbiter.notify_failure(2)  # purge the dead waiter
    # The holder, unaware, forwarded its reply to the dead site.
    arbiter._handle_release(1, Release(releaser=holder, transferred_to=dead))
    assert arbiter.arbiter.is_free


def test_ghost_release_is_ignored():
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    arbiter = sites[0]
    # Nothing locked, releaser unknown: FT mode swallows it.
    arbiter._handle_release(3, Release(releaser=Priority(7, 3)))
    assert arbiter.arbiter.is_free


# -- requester-side quorum switch -------------------------------------------------


def test_requester_requorums_when_member_dies():
    qs = TreeQuorumSystem(7)
    sim, sites, collector = build_ft(qs, cs_duration=5.0)
    # Occupy the root so site 5's request is parked, then kill the root.
    sites[0].submit_request()
    sim.run(until=2.5)
    sites[5].submit_request()
    sim.run(until=4.0)
    assert 0 in sites[5].quorum
    for s in sites:
        if s.site_id != 0:
            s.notify_failure(0)
    sim.crash(0)
    assert 0 not in sites[5].quorum  # re-ran quorum construction
    sim.run(until=10_000)
    assert any(r.site == 5 and r.complete for r in collector.records)


def test_inaccessible_when_no_quorum_survives():
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    site = sites[0]
    site.submit_request()
    sim.run(until=0.5)
    for dead in (1, 2, 3):  # 3 of 5 dead: no majority among {0, 4}
        site.notify_failure(dead)
    assert site.inaccessible


def test_ghost_grant_is_released_back():
    """A grant for a request we no longer run must free the arbiter."""
    qs = MajorityQuorumSystem(5)
    sim, sites, _ = build_ft(qs)
    site = sites[0]
    stale = Reply(arbiter=3, grantee=Priority(99, 0))
    site._record_reply(stale)
    sim.run(until=2.0)
    # Site 3 received a release for (99,0); being unlocked it ignored it —
    # the important part is that site 0 *sent* one rather than wedging 3.
    releases = [
        r
        for r in sim.trace.filter(kind="deliver", site=3)
        if isinstance(r.detail, Release) and r.detail.releaser == Priority(99, 0)
    ]
    assert releases


# -- end-to-end crash runs ---------------------------------------------------------


@pytest.mark.parametrize("victim", [0, 3, 6])
def test_crash_any_tree_site_preserves_liveness(victim):
    qs = TreeQuorumSystem(7)
    sim, sites, collector = build_ft(qs, cs_duration=0.2, seed=victim)
    for s in sites:
        for _ in range(4):
            sim.schedule(0.0, s.submit_request)
    FaultPlan().crash(victim, 5.0, detection_delay=2.0).install(sim, sites)
    sim.start()
    sim.run(until=200_000)
    check_mutual_exclusion(collector.records)
    live_unserved = [
        r for r in collector.records if not r.complete and r.site != victim
    ]
    assert not live_unserved


def test_two_crashes_majority_quorums():
    qs = MajorityQuorumSystem(9)
    sim, sites, collector = build_ft(qs, cs_duration=0.2, seed=11)
    for s in sites:
        for _ in range(3):
            sim.schedule(0.0, s.submit_request)
    plan = (
        FaultPlan()
        .crash(2, 4.0, detection_delay=1.5)
        .crash(7, 9.0, detection_delay=1.5)
    )
    plan.install(sim, sites)
    sim.start()
    sim.run(until=200_000)
    check_mutual_exclusion(collector.records)
    live_unserved = [
        r for r in collector.records if not r.complete and r.site not in (2, 7)
    ]
    assert not live_unserved
