"""Integration: the full Section 6 stack, including heartbeat detection."""

from __future__ import annotations

import pytest

from repro.core.faults import FaultTolerantSite
from repro.ft.detector import HeartbeatMonitor
from repro.ft.chaos import FaultPlan
from repro.ft.recovery import MonitoredSite
from repro.metrics.collector import MetricsCollector
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay, ExponentialDelay
from repro.sim.simulator import Simulator
from repro.verify.invariants import check_mutual_exclusion


def build(site_cls, quorum_name, n, seed=0, cs=0.2, delay=None, **site_kw):
    qs = make_quorum_system(quorum_name, n)
    sim = Simulator(seed=seed, delay_model=delay or ConstantDelay(1.0))
    collector = MetricsCollector()
    sites = [
        site_cls(i, qs, cs_duration=cs, listener=collector, **site_kw)
        for i in range(n)
    ]
    for s in sites:
        sim.add_node(s)
    return sim, sites, collector


def test_monitored_sites_detect_and_recover():
    """Heartbeat path end to end: no oracle, detection via silence."""
    sim, sites, collector = build(
        MonitoredSite,
        "tree",
        7,
        seed=5,
        hb_interval=2.0,
        hb_timeout=6.0,
        hb_lifetime=120.0,
    )
    for s in sites:
        for _ in range(3):
            sim.schedule(0.0, s.submit_request)
    sim.schedule(10.0, lambda: sim.crash(3))
    sim.start()
    sim.run(until=200.0)
    check_mutual_exclusion(collector.records)
    # Everyone alive eventually suspects site 3.
    for s in sites:
        if s.site_id != 3:
            assert 3 in s.monitor.suspected
            assert 3 in s.known_failed
    live_unserved = [
        r for r in collector.records if not r.complete and r.site != 3
    ]
    assert not live_unserved


def test_heartbeat_monitor_no_false_positives_without_crash():
    sim, sites, collector = build(
        MonitoredSite,
        "grid",
        9,
        seed=6,
        hb_interval=2.0,
        hb_timeout=8.0,
        hb_lifetime=100.0,
    )
    for s in sites:
        sim.schedule(0.0, s.submit_request)
    sim.start()
    sim.run(until=150.0)
    for s in sites:
        assert not s.monitor.suspected
    assert all(r.complete for r in collector.records)


def test_monitor_validates_parameters():
    from repro.errors import ConfigurationError

    sim, sites, _ = build(FaultTolerantSite, "grid", 4)
    with pytest.raises(ConfigurationError):
        HeartbeatMonitor(sites[0], range(4), interval=0.0, timeout=1.0,
                         lifetime=10.0, on_suspect=lambda s: None)
    with pytest.raises(ConfigurationError):
        HeartbeatMonitor(sites[0], range(4), interval=2.0, timeout=1.0,
                         lifetime=10.0, on_suspect=lambda s: None)


def test_availability_degrades_then_sites_report_inaccessible():
    """Kill a majority: the survivors must *know* they are blocked
    (inaccessible) rather than silently hanging."""
    sim, sites, collector = build(FaultTolerantSite, "majority", 5, seed=7)
    # Victims idle; survivors each submit one request *after* the crashes.
    for s in sites[:2]:
        sim.schedule(20.0, s.submit_request)
    plan = FaultPlan()
    for i, victim in enumerate((2, 3, 4)):
        plan.crash(victim, 2.0 + i, detection_delay=1.0)
    plan.install(sim, sites)
    sim.start()
    sim.run(until=100_000.0)
    assert sites[0].inaccessible and sites[1].inaccessible


def test_crash_during_cs_execution_releases_cleanly():
    """Crash the CS occupant itself: its locks must be recovered and every
    other site served."""
    sim, sites, collector = build(
        FaultTolerantSite, "tree", 7, seed=8, cs=5.0, delay=ConstantDelay(1.0)
    )
    for s in sites:
        sim.schedule(0.0, s.submit_request)
    # Site 0 (tree root, highest priority) wins first and enters around
    # t=2; crash it mid-CS.
    FaultPlan().crash(0, 3.5, detection_delay=1.5).install(sim, sites)
    sim.start()
    sim.run(until=100_000.0)
    check_mutual_exclusion(collector.records)
    live_unserved = [
        r for r in collector.records if not r.complete and r.site != 0
    ]
    assert not live_unserved


@pytest.mark.parametrize("quorum", ["tree", "majority", "hierarchical", "rst"])
def test_randomized_crashes_per_construction(quorum):
    n = 9 if quorum != "tree" else 7
    sim, sites, collector = build(
        FaultTolerantSite, quorum, n, seed=hash(quorum) % 1000,
        delay=ExponentialDelay(1.0),
    )
    for s in sites:
        for _ in range(3):
            sim.schedule(0.0, s.submit_request)
    FaultPlan().crash(n - 1, 4.0, detection_delay=2.0).install(sim, sites)
    sim.start()
    sim.run(until=500_000.0)
    check_mutual_exclusion(collector.records)
    live_unserved = {
        r.site for r in collector.records if not r.complete and r.site != n - 1
    }
    inaccessible = {s.site_id for s in sites if s.inaccessible}
    assert live_unserved <= inaccessible
