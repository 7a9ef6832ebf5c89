"""Experiment E7 — Section 6: fault tolerance.

Two parts:

1. **Availability** — for each quorum construction, the probability that a
   live quorum can still be assembled when every site is independently up
   with probability ``p``. This is the quantitative version of Section
   6's qualitative comparison (majority/RST/grid-set mask failures;
   tree/HQC reconfigure; plain grids are fragile).
2. **Recovery liveness** — run the full fault-tolerant algorithm
   (:class:`~repro.core.faults.FaultTolerantSite`) under load, crash sites
   mid-run, and verify that every live site's requests still complete and
   mutual exclusion holds throughout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.faults import FaultTolerantSite
from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentReport
from repro.ft.chaos import CrashCycle, install_crash_cycles
from repro.metrics.collector import MetricsCollector
from repro.quorums.availability import availability_curve
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay
from repro.sim.simulator import Simulator
from repro.verify.invariants import check_mutual_exclusion

DEFAULT_CONSTRUCTIONS = ("grid", "tree", "hierarchical", "majority", "grid-set", "rst")
DEFAULT_PS = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)


def run_availability(
    n_sites: int = 13,
    constructions: Sequence[str] = DEFAULT_CONSTRUCTIONS,
    ps: Sequence[float] = DEFAULT_PS,
) -> ExperimentReport:
    """Availability vs per-site up-probability, per construction."""
    report = ExperimentReport(
        experiment_id="E7a",
        title=f"Quorum availability vs site up-probability p, N={n_sites}",
        headers=["construction"] + [f"p={p}" for p in ps],
    )
    for name in constructions:
        system = make_quorum_system(name, n_sites)
        curve = availability_curve(system, ps)
        report.add_row(name, *[pt.availability for pt in curve])
    report.add_note(
        "Availability asks whether *some* live site can assemble a quorum "
        "avoiding the failed sites, using each construction's native "
        "substitution rule (paper Section 6)."
    )
    return report


def run_recovery(
    n_sites: int = 15,
    quorum: str = "tree",
    seed: int = 6,
    requests_per_site: int = 6,
    crashes: Optional[List[int]] = None,
    crash_times: Optional[List[float]] = None,
) -> ExperimentReport:
    """Crash sites mid-run; verify live sites keep making progress."""
    crashes = crashes if crashes is not None else [0, 4]
    crash_times = crash_times if crash_times is not None else [6.0, 14.0]
    if len(crashes) != len(crash_times):
        raise ConfigurationError(
            f"{len(crashes)} crash sites {crashes} but {len(crash_times)} "
            f"crash times {crash_times}: give one time per site"
        )
    qs = make_quorum_system(quorum, n_sites)
    sim = Simulator(seed=seed, delay_model=ConstantDelay(1.0))
    collector = MetricsCollector()
    sites = [
        FaultTolerantSite(i, qs, cs_duration=0.1, listener=collector)
        for i in range(n_sites)
    ]
    for site in sites:
        sim.add_node(site)
        for _ in range(requests_per_site):
            sim.schedule(0.0, site.submit_request)
    install_crash_cycles(
        sim,
        sites,
        [
            CrashCycle(site_id, at, detection_delay=2.0)
            for site_id, at in zip(crashes, crash_times)
        ],
    )
    sim.start()
    sim.run(until=500_000.0)

    check_mutual_exclusion(collector.records)
    crashed = set(crashes)
    live_unserved = [
        r for r in collector.records if not r.complete and r.site not in crashed
    ]
    report = ExperimentReport(
        experiment_id="E7b",
        title=f"Recovery liveness: {quorum} quorums, N={n_sites}, "
        f"crash sites {crashes} at t={crash_times}",
        headers=["metric", "value"],
    )
    report.add_row("requests submitted", requests_per_site * n_sites)
    report.add_row("completed", len(collector.completed))
    report.add_row("unserved at live sites", len(live_unserved))
    report.add_row(
        "unserved at crashed sites",
        len([r for r in collector.records if not r.complete and r.site in crashed]),
    )
    report.add_row("inaccessible live sites", sum(1 for s in sites if s.inaccessible))
    report.add_row("drained at t", round(sim.last_event_time, 1))
    if live_unserved:
        report.add_note("FAILURE: live sites starved — recovery protocol broken")
    else:
        report.add_note(
            "All live-site requests served despite mid-run crashes; mutual "
            "exclusion verified over the whole run (Section 6 claim)."
        )
    return report
