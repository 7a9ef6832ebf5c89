"""Tests for crash-recovery (rejoin) support and the churn experiment."""

from __future__ import annotations

import pytest

from repro.core.faults import FaultTolerantSite
from repro.errors import ConfigurationError
from repro.experiments.churn import run_churn
from repro.ft.chaos import CrashCycle, FaultPlan, install_crash_cycles
from repro.metrics.collector import MetricsCollector
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay, ExponentialDelay
from repro.sim.simulator import Simulator
from repro.verify.invariants import check_mutual_exclusion


def build(quorum="tree", n=7, seed=0, delay=None, rps=5):
    qs = make_quorum_system(quorum, n)
    sim = Simulator(seed=seed, delay_model=delay or ConstantDelay(1.0))
    col = MetricsCollector()
    sites = [FaultTolerantSite(i, qs, cs_duration=0.2, listener=col) for i in range(n)]
    for s in sites:
        sim.add_node(s)
        for _ in range(rps):
            sim.schedule(0.0, s.submit_request)
    return sim, sites, col


def test_churn_plan_validation():
    with pytest.raises(ConfigurationError):
        FaultPlan().crash(0, crash_at=5.0, recover_at=5.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().crash(0, crash_at=1.0, recover_at=2.0, detection_delay=-1)
    sim, sites, _ = build()
    with pytest.raises(ConfigurationError, match="no site 99"):
        install_crash_cycles(sim, sites, [CrashCycle(99, 1.0, 2.0)])


def test_recovered_site_serves_again():
    sim, sites, col = build()
    FaultPlan().crash(0, crash_at=4.0, recover_at=15.0, detection_delay=1.0).install(
        sim, sites
    )
    sim.start()
    sim.run(until=500_000)
    check_mutual_exclusion(col.records)
    assert sim.pending_events() == 0
    # The recovered site finishes its backlog too (nothing stuck anywhere).
    assert all(not s.has_work for s in sites)
    assert sites[0].completed > 0
    assert not sites[0].rejoining


def test_reset_clears_protocol_state():
    sim, sites, col = build()
    sim.start()
    sim.run(until=3.0)  # mid-flight
    site = sites[2]
    site.reset_after_recovery(known_failed={5})
    assert site.arbiter.is_free
    assert len(site.arbiter.req_queue) == 0
    assert site.req.priority is None
    assert site.known_failed == {5}
    assert site.rejoining
    # Requests stay deferred until readmission.
    before = site.completed
    site.submit_request()
    assert site.state.value == "idle"
    site.complete_rejoin()
    sim.run(until=500_000)
    assert site.completed > before


def test_notify_recovery_forces_cleanup_first():
    """A recovery notice racing ahead of the failure notice must still
    purge the recovered site's pre-crash residue."""
    sim, sites, _ = build()
    sim.start()
    arbiter = sites[3]
    from repro.common import Priority
    from repro.core.messages import Request

    arbiter._handle_request(Request(Priority(1, 0)))  # site 0 locks 3
    assert arbiter.arbiter.lock == Priority(1, 0)
    # No failure notice was ever delivered; recovery arrives first.
    arbiter.notify_recovery(0)
    assert 0 not in arbiter.known_failed
    assert arbiter.arbiter.is_free  # the stale lock was cleaned


def test_abandoned_request_closes_metrics_record():
    sim, sites, col = build()
    sim.start()
    sim.run(until=1.0)
    requesting = [s for s in sites if s.state.value == "requesting"]
    site = requesting[0]
    site.reset_after_recovery()
    # The open record is closed; a fresh request may start later without
    # tripping the collector's double-request guard.
    site.complete_rejoin()
    sim.run(until=500_000)
    check_mutual_exclusion(col.records)


def test_churn_experiment_report():
    report = run_churn(n_sites=7, constructions=("tree",), requests_per_site=5)
    row = report.rows[0]
    assert row[4] == 0  # no stuck live sites
    assert 0 < row[3] <= 1.2
