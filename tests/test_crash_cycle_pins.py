"""Byte-level pins on every path that injects crash cycles.

Crash → ``failure(i)`` to live peers → recover/reset → readmit is
scheduled before a run starts, so an execution is fixed by that
schedule: any change to which events are queued, or in what order at a
shared instant, shows up here. Each pin is the first 16 hex digits of
a sha256 over a run's summary JSON plus its kernel event count, or over
an experiment report's rendered text.

The hand-built :class:`FaultPlan` lists its permanent crash *before*
its recovering one, and no two of its fault events share an instant:
the digest then holds whatever order the installer walks the cycles in.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.faults import FaultTolerantSite
from repro.experiments.churn import run_churn
from repro.experiments.fault_tolerance import run_recovery
from repro.ft.chaos import ChaosSchedule, FaultPlan
from repro.locks import run_lock_service
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import summarize
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay
from repro.sim.simulator import Simulator

from test_lock_service_faults import _crash_config


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_digest(summary: dict, events: int) -> str:
    return _digest(json.dumps(summary, sort_keys=True) + f"\n{events}")


def _lock_digest(config) -> str:
    result = run_lock_service(config)
    return _run_digest(result.summary.to_dict(), result.sim.events_processed)


def test_lock_crash_cycles_with_recovery_pinned():
    assert _lock_digest(_crash_config(n_requests=600)) == "e95701550d71dd6f"


def test_lock_permanent_crashes_pinned():
    config = _crash_config(n_requests=600, crash_downtime=0.0)
    assert _lock_digest(config) == "8d4165dbbcaf986b"


def test_lock_chaos_supplied_crash_count_pinned():
    config = _crash_config(
        n_requests=400,
        crashes=0,
        chaos=ChaosSchedule(
            seed=3, horizon=40.0, loss_bursts=1, burst_duration=2.0,
            burst_loss=0.3, delay_spikes=1, spike_duration=2.0,
            link_cuts=0, crashes=1, crash_downtime=15.0,
        ),
    )
    assert _lock_digest(config) == "944b09f3dbc1c222"


def test_recovery_experiment_report_pinned():
    assert _digest(run_recovery().render()) == "058951cd016f828e"


def test_churn_experiment_report_pinned():
    assert _digest(run_churn().render()) == "8c1bd2f92a1ba211"


def test_fault_plan_mixed_cycles_pinned():
    n = 9
    qs = make_quorum_system("tree", n)
    sim = Simulator(seed=5, delay_model=ConstantDelay(1.0))
    collector = MetricsCollector()
    sites = [
        FaultTolerantSite(i, qs, cs_duration=0.2, listener=collector)
        for i in range(n)
    ]
    for site in sites:
        sim.add_node(site)
        for _ in range(4):
            sim.schedule(0.0, site.submit_request)
    plan = (
        FaultPlan()
        .crash(6, 9.0)
        .crash(2, 4.0, recover_at=16.0, detection_delay=1.5)
    )
    plan.install(sim, sites)
    sim.start()
    sim.run(until=500_000.0)
    stats = sim.network.stats
    summary = summarize(
        "cao-singhal-ft", n, collector.records, stats.messages_sent,
        stats.by_type, sim.last_event_time, 1.0, 5,
    )
    assert summary.completed > 0
    digest = _run_digest(summary.to_dict(), sim.events_processed)
    assert digest == "c5d708342ad94c26"
