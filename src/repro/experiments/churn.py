"""Experiment E11 — service continuity under crash/recovery churn.

Extends the Section 6 story from a single failure to continuous churn:
sites repeatedly crash and rejoin while the system serves a steady
workload. For each quorum construction we report how much throughput
survives churn (relative to an identical churn-free run), whether any
live site's request was lost, and the recovery machinery's message
overhead — with mutual exclusion verified across every transition.

This exercises the full rejoin pipeline added on top of the paper
(failure notices → cleanup → quorum re-selection → recovery notices →
readmission), quantifying the cost of the paper's "fault-tolerance
capability" in steady state rather than at a single point failure.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.faults import FaultTolerantSite
from repro.experiments.report import ExperimentReport
from repro.ft.chaos import CrashCycle, install_crash_cycles
from repro.metrics.collector import MetricsCollector
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay
from repro.sim.simulator import Simulator
from repro.verify.invariants import check_mutual_exclusion

DEFAULT_CONSTRUCTIONS = ("tree", "majority", "rst")


def _run_once(
    quorum: str,
    n_sites: int,
    seed: int,
    requests_per_site: int,
    churn: bool,
    cycle: float = 30.0,
    down_time: float = 10.0,
):
    qs = make_quorum_system(quorum, n_sites)
    sim = Simulator(seed=seed, delay_model=ConstantDelay(1.0))
    collector = MetricsCollector()
    sites = [
        FaultTolerantSite(i, qs, cs_duration=0.2, listener=collector)
        for i in range(n_sites)
    ]
    for site in sites:
        sim.add_node(site)
        for _ in range(requests_per_site):
            sim.schedule(0.0, site.submit_request)
    if churn:
        # Two rotating victims per cycle, staggered half a cycle apart.
        install_crash_cycles(sim, sites, [
            CrashCycle(0, crash_at=cycle / 6, recover_at=cycle / 6 + down_time,
                       detection_delay=1.5),
            CrashCycle(n_sites - 1, crash_at=cycle / 2,
                       recover_at=cycle / 2 + down_time, detection_delay=1.5),
        ])
    sim.start()
    sim.run(until=1_000_000.0)
    check_mutual_exclusion(collector.records)
    return sim, sites, collector


def run_churn(
    n_sites: int = 9,
    constructions: Sequence[str] = DEFAULT_CONSTRUCTIONS,
    seed: int = 14,
    requests_per_site: int = 8,
) -> ExperimentReport:
    """Churn vs churn-free throughput per construction."""
    report = ExperimentReport(
        experiment_id="E11",
        title=f"Crash/recovery churn, N={n_sites} "
        "(2 crash+rejoin cycles during a saturated run)",
        headers=[
            "construction",
            "served (churn-free)",
            "served (churn)",
            "throughput retained",
            "stuck live sites",
            "recovery msgs (probe/ack)",
        ],
    )
    for construction in constructions:
        base_sim, _, base_col = _run_once(
            construction, n_sites, seed, requests_per_site, churn=False
        )
        sim, sites, collector = _run_once(
            construction, n_sites, seed, requests_per_site, churn=True
        )
        base_rate = len(base_col.completed) / base_sim.last_event_time
        churn_rate = len(collector.completed) / sim.last_event_time
        by_type = sim.network.stats.by_type
        recovery_msgs = by_type.get("probe", 0) + by_type.get("probe-ack", 0)
        stuck = sum(1 for s in sites if s.has_work)
        report.add_row(
            construction,
            len(base_col.completed),
            len(collector.completed),
            churn_rate / base_rate,
            stuck,
            recovery_msgs,
        )
    report.add_note(
        "Served counts differ only by the crashed sites' in-flight and "
        "deferred requests; every live site's requests complete (stuck "
        "must be 0) and mutual exclusion is verified across crash, "
        "cleanup, rejoin, and readmission."
    )
    return report
