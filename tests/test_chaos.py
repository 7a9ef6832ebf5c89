"""Tests for the chaos engine: plan validation, deterministic schedules,
and the headline acceptance property — every algorithm stays safe and
live under seeded chaos (loss + duplication + reordering)."""

from __future__ import annotations

import random

import pytest

from repro.core.faults import FaultTolerantSite
from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, run_mutex
from repro.ft.chaos import ChaosSchedule, FaultPlan, chaos_preset, CHAOS_PRESETS
from repro.metrics.collector import MetricsCollector
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay, FaultModel
from repro.sim.simulator import Simulator
from repro.sim.transport import ReliableConfig
from repro.verify.invariants import check_mutual_exclusion, check_progress
from repro.workload.driver import SaturationWorkload


# -- plan validation ----------------------------------------------------------


def test_fault_plan_validates_actions():
    with pytest.raises(ConfigurationError):
        FaultPlan().loss_burst(5.0, 5.0, 0.5)  # empty window
    with pytest.raises(ConfigurationError):
        FaultPlan().loss_burst(-1.0, 5.0, 0.5)
    with pytest.raises(ConfigurationError):
        FaultPlan().loss_burst(0.0, 5.0, 1.5)  # not a probability
    with pytest.raises(ConfigurationError):
        FaultPlan().delay_spike(0.0, 5.0, 0.0)  # factor must be positive
    with pytest.raises(ConfigurationError):
        FaultPlan().link_cut(3, 3, 0.0, 5.0)  # self-link
    with pytest.raises(ConfigurationError):
        FaultPlan().crash(0, 5.0, recover_at=5.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().crash(0, 5.0, detection_delay=-1.0)


def test_chaos_schedule_validates_parameters():
    with pytest.raises(ConfigurationError):
        ChaosSchedule(horizon=0.0)
    with pytest.raises(ConfigurationError):
        ChaosSchedule(loss_bursts=-1)
    with pytest.raises(ConfigurationError):
        ChaosSchedule(burst_loss=1.5)
    with pytest.raises(ConfigurationError):
        ChaosSchedule(spike_factor=0.0)
    with pytest.raises(ConfigurationError):
        ChaosSchedule().materialize(1)  # needs >= 2 sites


def test_chaos_schedule_materializes_deterministically():
    sched = ChaosSchedule(seed=42, link_cuts=2, crashes=1)
    assert sched.materialize(9) == sched.materialize(9)
    assert sched.materialize(9) != ChaosSchedule(seed=43, link_cuts=2,
                                                 crashes=1).materialize(9)


def test_presets_materialize():
    for name in CHAOS_PRESETS:
        plan = chaos_preset(name, seed=3).materialize(9)
        assert isinstance(plan, FaultPlan)
    with pytest.raises(ConfigurationError):
        chaos_preset("no-such-plan")


def test_overlays_require_fault_model():
    sim = Simulator(seed=0, delay_model=ConstantDelay(1.0))
    with pytest.raises(ConfigurationError):
        FaultPlan().loss_burst(1.0, 2.0, 0.5).install(sim, [])


def test_crash_cycles_require_fault_tolerant_sites():
    with pytest.raises(ConfigurationError):
        run_mutex(
            RunConfig(
                algorithm="maekawa",
                chaos=FaultPlan().crash(0, 5.0, recover_at=20.0),
                workload=SaturationWorkload(2),
            )
        )


def _churn(seed: int, **overrides) -> ChaosSchedule:
    recipe = dict(loss_bursts=0, delay_spikes=0, link_cuts=0, crashes=2)
    recipe.update(overrides)
    return ChaosSchedule(seed=seed, **recipe)


def _independent_victims(schedule: ChaosSchedule, n_sites: int):
    """Crash cycles as drawn with no overlap check: a start, then a site."""
    rng = random.Random(schedule.seed)
    drawn = []
    for _ in range(schedule.crashes):
        start = rng.uniform(0.0, schedule.horizon - schedule.crash_downtime)
        drawn.append((rng.randrange(n_sites), start, start + schedule.crash_downtime))
    return drawn


def _overlapping(cycles) -> bool:
    return any(
        a[0] == b[0] and not (a[2] < b[1] or b[2] < a[1])
        for i, a in enumerate(cycles)
        for b in cycles[:i]
    )


@pytest.mark.parametrize("seed", [35, 58, 99, 117])
def test_churn_never_gives_one_site_overlapping_down_windows(seed):
    # Drawn independently, each of these seeds crashes one site twice
    # inside one down window; 99 and 117 then drained with every site
    # holding unserved work. The victim is now redrawn.
    n = 9
    schedule = _churn(seed)
    assert _overlapping(_independent_victims(schedule, n))
    plan = schedule.materialize(n)
    cycles = [(c.site, c.crash_at, c.recover_at) for c in plan.crashes]
    assert not _overlapping(cycles)

    qs = make_quorum_system("grid", n)
    sim = Simulator(seed=seed, delay_model=ConstantDelay(1.0))
    collector = MetricsCollector()
    sites = [FaultTolerantSite(i, qs, listener=collector) for i in range(n)]
    for site in sites:
        sim.add_node(site)
    SaturationWorkload(30).install(sim, sites)
    plan.install(sim, sites)
    sim.start()
    sim.run(until=500_000.0)
    check_mutual_exclusion(collector.records)
    unserved = {r.site for r in collector.records if not r.complete}
    assert unserved <= {site for site, _start, _end in cycles}


def test_churn_draws_are_unchanged_where_no_window_overlaps():
    checked = 0
    for seed in range(60):
        schedule = _churn(seed, crashes=3)
        drawn = _independent_victims(schedule, 9)
        if _overlapping(drawn):
            continue
        plan = schedule.materialize(9)
        assert [(c.site, c.crash_at, c.recover_at) for c in plan.crashes] == drawn
        checked += 1
    assert checked > 40


def test_churn_with_no_free_site_is_refused():
    # Every down window is [0, 10]: two sites cannot absorb three crashes.
    schedule = _churn(0, crashes=3, horizon=10.0, crash_downtime=10.0)
    assert len(schedule.materialize(3).crashes) == 3
    with pytest.raises(ConfigurationError, match="no site is free"):
        schedule.materialize(2)


# -- acceptance: safety and liveness under seeded chaos -----------------------


@pytest.mark.parametrize(
    "algorithm", ["cao-singhal", "maekawa", "ricart-agrawala"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_safety_and_liveness_under_chaos(algorithm, seed):
    """Up to 20% loss plus duplication and reordering: every run must
    still satisfy mutual exclusion, serve every request, and drain —
    run_mutex(verify=True) raises otherwise."""
    summary = run_mutex(
        RunConfig(
            algorithm=algorithm,
            n_sites=9,
            seed=seed,
            fault_model=FaultModel(loss=0.2, duplicate=0.1, reorder=0.2),
            reliable=ReliableConfig(),
            workload=SaturationWorkload(3),
        )
    ).summary
    assert summary.completed == 9 * 3
    assert summary.unserved == 0
    assert summary.channel_stats["retransmitted"] > 0


def test_loss_burst_and_delay_spike_overlays_apply_and_clear():
    plan = (
        FaultPlan()
        .loss_burst(2.0, 8.0, 0.8)
        .loss_burst(4.0, 6.0, 0.5)  # overlapped: max severity wins
        .delay_spike(3.0, 7.0, 5.0)
    )
    summary = run_mutex(
        RunConfig(
            algorithm="cao-singhal",
            n_sites=9,
            seed=1,
            chaos=plan,
            reliable=ReliableConfig(),
            workload=SaturationWorkload(3),
        )
    ).summary
    assert summary.unserved == 0
    assert summary.channel_stats["messages_lost"] > 0


# -- sever/heal raced against the delay-optimal handoff -----------------------


def test_link_cut_raced_with_handoff_window():
    """Cut a quorum link while handoff traffic (including the paper's
    forwarded replies) is in flight, heal it mid-run, and require the
    run to finish correctly on the back of retransmission alone."""
    n = 7
    qs = make_quorum_system("tree", n)
    sim = Simulator(seed=0, delay_model=ConstantDelay(1.0))
    transport = sim.install_transport(ReliableConfig(rto=2.0))
    col = MetricsCollector()
    sites = [
        FaultTolerantSite(i, qs, cs_duration=0.2, listener=col) for i in range(n)
    ]
    for s in sites:
        sim.add_node(s)
        for _ in range(4):
            sim.schedule(0.0, s.submit_request)
    # The tree root (site 0) arbitrates for everyone: cutting its links
    # mid-run guarantees the cut lands inside active handoff windows.
    plan = FaultPlan().link_cut(0, 1, 2.0, 9.0).link_cut(0, 2, 4.0, 11.0)
    plan.install(sim, sites)
    sim.start()
    sim.run(until=500_000)

    check_mutual_exclusion(col.records)
    check_progress(col.records, context="link-cut chaos")
    assert sim.pending_events() == 0
    assert all(not s.has_work for s in sites)
    # The cut forced real retransmissions; the heal let them land.
    assert transport.stats.retransmitted > 0
