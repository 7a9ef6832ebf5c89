"""Property test: the fault-tolerant algorithm under arbitrary crash
schedules.

Hypothesis picks the quorum construction, system size, delays, workload,
victims, and crash/detection times; the run must preserve mutual exclusion
throughout, and every live site's request must either complete or the site
must explicitly know it is inaccessible (no silent starvation).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.faults import FaultTolerantSite
from repro.ft.chaos import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay, ExponentialDelay
from repro.sim.simulator import Simulator
from repro.verify.invariants import check_mutual_exclusion

scenarios = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(4, 12),
        "quorum": st.sampled_from(
            ["tree", "majority", "hierarchical", "grid-set", "rst"]
        ),
        "constant_delay": st.booleans(),
        "victims": st.integers(1, 2),
    }
)


@given(scenario=scenarios, data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_crashes_never_violate_safety_or_strand_silently(scenario, data):
    n = scenario["n"]
    system = make_quorum_system(scenario["quorum"], n)
    delay = (
        ConstantDelay(1.0) if scenario["constant_delay"] else ExponentialDelay(1.0)
    )
    sim = Simulator(seed=scenario["seed"], delay_model=delay)
    collector = MetricsCollector()
    sites = [
        FaultTolerantSite(i, system, cs_duration=0.15, listener=collector)
        for i in range(n)
    ]
    for site in sites:
        sim.add_node(site)
        for _ in range(3):
            sim.schedule(0.0, site.submit_request)

    victims = data.draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=scenario["victims"],
            max_size=scenario["victims"],
            unique=True,
        ),
        label="victims",
    )
    plan = FaultPlan()
    for v in victims:
        at = data.draw(st.floats(1.0, 20.0), label=f"crash-time[{v}]")
        detect = data.draw(st.floats(0.1, 4.0), label=f"detect-delay[{v}]")
        plan.crash(v, at, detection_delay=detect)
    plan.install(sim, sites)

    sim.start()
    sim.run(until=1_000_000.0, max_events=3_000_000)
    assert sim.pending_events() == 0, "run hit the safety cap"

    # Safety: Theorem 1 holds through crashes and recovery.
    check_mutual_exclusion(collector.records)

    # Liveness: a live site's unserved request is only acceptable when the
    # site knows it cannot assemble a quorum (inaccessible).
    victims_set = set(victims)
    starved = {
        r.site
        for r in collector.records
        if not r.complete and r.site not in victims_set
    }
    inaccessible = {
        s.site_id
        for s in sites
        if s.site_id not in victims_set and (s.inaccessible or s.has_work)
    }
    silently_starved = {
        s for s in starved if not sites[s].inaccessible
    }
    assert not silently_starved, (
        f"sites {sorted(silently_starved)} starved without knowing why "
        f"(victims {sorted(victims_set)})"
    )
