"""Crash-fault suite for the lock service: failover, fencing, retries.

The scenarios here pin the DESIGN.md §10 failure model end to end: shard
sites crash and rejoin on seeded schedules, stranded acquires fail over
to surviving sites through the retry layer, orphaned holds are fenced
off, and all three safety checkers stay green throughout. The unit
half of the file exercises the new machinery in isolation — fencing
epochs, the explicit orphan path in the post-hoc checker, retry-policy
validation, and the idempotence filter.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MutualExclusionViolation
from repro.locks import (
    KeyConformanceChecker,
    LockRequest,
    LockRunConfig,
    LockService,
    RetryPolicy,
    check_key_mutual_exclusion,
    derive_shard_crashes,
    run_lock_configs,
    run_lock_service,
)
from repro.locks.frontend import _FrontEndState
from repro.sim.network import ConstantDelay
from repro.sim.rng import SeedSequence
from repro.sim.simulator import Simulator


def _crash_config(**overrides) -> LockRunConfig:
    """Contended enough that crashes land on busy sites."""
    params = dict(
        shards=4,
        n_sites=5,
        n_keys=50,
        n_clients=32,
        arrival_rate=24.0,
        n_requests=1200,
        hold_duration=0.8,
        key_skew=1.1,
        seed=7,
        crashes=1,
        crash_downtime=20.0,
        detection_delay=2.0,
    )
    params.update(overrides)
    return LockRunConfig(**params)


# -- end-to-end crash-chaos runs ------------------------------------------------


def test_crash_run_safe_and_fully_resolved():
    result = run_lock_service(_crash_config())
    summary = result.summary
    service = result.service

    # One crash cycle per shard actually happened.
    assert summary.crashes == 4
    # The safety surface stayed green all three ways (run_lock_service
    # already raises on a violation; the summary records the count).
    assert summary.violations == 0
    assert not service.checker.holding
    # Every acquire reached a terminal state, and every non-aborted
    # acquire was granted (completed and orphaned both imply granted).
    assert (
        summary.completed + summary.orphaned + summary.aborted
        == summary.submitted
    )
    for request in service.requests:
        assert request.finished
        if not request.aborted:
            assert request.granted
    # Failover was actually exercised, not vacuously passed.
    assert summary.failovers >= 1
    assert summary.retries >= summary.failovers
    # Degraded windows opened and closed: availability strictly between
    # 0 and 1.
    assert 0.0 < summary.availability < 1.0


def test_crash_run_deterministic_across_workers():
    cfg = _crash_config(n_requests=600)
    inline = run_lock_service(cfg).summary.to_dict()
    assert run_lock_configs([cfg], workers=1)[0].to_dict() == inline
    fanned = run_lock_configs([cfg, cfg], workers=4)
    assert fanned[0].to_dict() == inline
    assert fanned[1].to_dict() == inline


def test_permanent_crash_still_resolves_every_acquire():
    # downtime=0 means fail-stop forever: the shard keeps running on the
    # four survivors and the ledger still balances.
    result = run_lock_service(
        _crash_config(n_requests=600, crash_downtime=0.0)
    )
    summary = result.summary
    assert summary.crashes == 4
    assert summary.violations == 0
    assert (
        summary.completed + summary.orphaned + summary.aborted
        == summary.submitted
    )
    # A permanently-down site keeps its shard degraded to the end.
    assert summary.availability < 1.0


def test_permanent_crashes_without_live_quorum_refused_up_front():
    # Seed 3 draws victims {0, 4} in shard 0: the 5-site grid has no
    # quorum avoiding both, so survivor 1 could never acquire again.
    config = LockRunConfig(
        shards=4, n_sites=5, n_requests=600, arrival_rate=6.0,
        crashes=2, crash_downtime=0.0, seed=3,
    )
    with pytest.raises(
        ConfigurationError,
        match=r"shard 0: permanent crashes of sites \[0, 4\] leave site 1 "
        "no live quorum in the grid coterie",
    ):
        run_lock_service(config)


def test_chaos_overlay_supplies_crash_count():
    from repro.ft.chaos import ChaosSchedule

    cfg = _crash_config(
        n_requests=400,
        crashes=0,
        chaos=ChaosSchedule(
            seed=3, horizon=40.0, loss_bursts=1, burst_duration=2.0,
            burst_loss=0.3, delay_spikes=1, spike_duration=2.0,
            link_cuts=0, crashes=1, crash_downtime=15.0,
        ),
    )
    assert cfg.effective_crashes() == 1
    result = run_lock_service(cfg)
    summary = result.summary
    assert summary.crashes == 4  # 1 per shard x 4 shards
    assert summary.violations == 0
    assert (
        summary.completed + summary.orphaned + summary.aborted
        == summary.submitted
    )


def test_crash_free_run_reports_full_availability():
    result = run_lock_service(
        _crash_config(n_requests=200, crashes=0)
    )
    summary = result.summary
    assert summary.crashes == 0
    assert summary.availability == 1.0
    assert summary.failovers == summary.retries == 0
    assert summary.orphaned == summary.aborted == 0
    assert summary.completed == summary.submitted


def test_lock_chaos_experiment_smoke():
    from repro.experiments import run_lock_chaos

    report = run_lock_chaos(
        crash_counts=(0, 1),
        detection_delays=(2.0,),
        shards=2,
        n_sites=4,
        n_keys=100,
        n_clients=8,
        n_requests=120,
        rate_per_client=1.0,
        workers=1,
    )
    assert report.experiment_id == "E16"
    assert len(report.rows) == 2
    violations_col = report.headers.index("violations")
    assert all(row[violations_col] == 0 for row in report.rows)
    # The fault-free baseline row reports full availability.
    availability_col = report.headers.index("availability %")
    assert report.rows[0][availability_col] == 100.0


# -- lease-timer crash regression ----------------------------------------------


def _single_shard_service(lease_window: float = 5.0):
    sim = Simulator(seed=1, delay_model=ConstantDelay(0.1))
    service = LockService(
        sim,
        shards=1,
        n_sites=5,
        lease_window=lease_window,
        fault_tolerant=True,
    )
    return sim, service


def test_lease_timer_cancelled_when_site_crashes_mid_lease():
    # Regression: hold/lease timers go through view.schedule_call and
    # are raw simulator events, NOT crash-suppressed like Node timers.
    # An uncancelled lease timer would fire release_cs() against a site
    # that no longer holds (or even knows about) the shard CS.
    sim, service = _single_shard_service(lease_window=5.0)
    request = service.acquire(client=0, key="k", hold=0.2)
    sim.run(until=3.0)

    front = service.front_ends[0][request.site]
    assert request.complete
    assert front.state is _FrontEndState.LEASING
    assert front._lease_timer is not None

    view = service.views[0]
    view.crash(request.site)
    assert front.state is _FrontEndState.CRASHED
    assert front._lease_timer is None
    # Let the (now cancelled) lease expiry instant pass: nothing fires,
    # in particular no release_cs() on the crashed site.
    expiries_before = service.stats.lease_expiries
    sim.run(until=30.0)
    assert service.stats.lease_expiries == expiries_before


def test_hold_timer_cancelled_and_lease_orphaned_on_crash():
    sim, service = _single_shard_service(lease_window=0.0)
    request = service.acquire(client=0, key="k", hold=50.0)
    sim.run(until=3.0)
    assert request.granted and not request.complete

    view = service.views[0]
    view.crash(request.site)
    assert request.orphaned
    assert request.orphan_time == pytest.approx(sim.now)
    # The hold expired orphaned, so the key's fence was bumped and the
    # hold vacated online.
    assert service.checker.fence_of("k") == 1
    assert "k" not in service.checker.holding
    # The hold timer was cancelled: no phantom release at t=50+.
    sim.run(until=120.0)
    assert not request.complete
    # Post-hoc the orphaned hold is excused at its orphan instant.
    check_key_mutual_exclusion(service.requests)


def test_stranded_acquires_fail_over_to_surviving_site():
    sim, service = _single_shard_service(lease_window=0.0)
    first = service.acquire(client=0, key="a", hold=30.0)
    sim.run(until=3.0)
    assert first.granted
    # Queue a second key behind the long hold on the same front end,
    # then kill the site: the stranded acquire must be rerouted to and
    # complete on a survivor.
    crashed = first.site
    view = service.views[0]
    key = next(
        f"k{i}" for i in range(1000)
        if service.router.home_site(f"k{i}") == crashed
    )
    second = service.acquire(client=1, key=key, hold=0.1)
    assert second.site == crashed
    view.crash(crashed)
    # Oracle detection, as the runner's churn plan would deliver it:
    # survivors learn of the failure so the shard CS recovers.
    for site in view.live_sites():
        view.nodes[site].notify_failure(crashed)
    assert first.orphaned
    sim.run(until=200.0)
    assert second.complete
    assert second.site != crashed
    assert service.stats.failovers >= 1
    assert service.stats.crashes == 1


# -- fencing epochs -------------------------------------------------------------


def _granted(key: str, fence: int, t: float = 1.0) -> LockRequest:
    request = LockRequest(0, key, 0, 0, 0.1, 0.0)
    request.fence = fence
    request.grant_time = t
    return request


def test_stale_fence_grant_is_refused():
    checker = KeyConformanceChecker()
    assert checker.fence_of("k") == 0
    holder = _granted("k", fence=0)
    checker.on_grant(holder)
    checker.on_holder_crashed(holder)
    assert checker.fence_of("k") == 1
    # A front end replaying pre-crash state serves the revoked lease:
    # its token is one epoch behind.
    with pytest.raises(MutualExclusionViolation, match="stale fencing"):
        checker.on_grant(_granted("k", fence=0, t=2.0))
    # The same grant issued under the bumped epoch is fine.
    checker.on_grant(_granted("k", fence=1, t=2.0))


def test_holder_crash_bumps_fence_even_after_release():
    # The front end may crash after a hold completed; the revocation
    # still bumps the epoch (the crash invalidates any state the front
    # end might replay) but must not disturb another live holder.
    checker = KeyConformanceChecker()
    old = _granted("k", fence=0)
    checker.on_grant(old)
    old.release_time = 1.5
    checker.on_release(old)
    fresh = _granted("k", fence=0, t=2.0)
    checker.on_grant(fresh)
    checker.on_holder_crashed(old)
    assert checker.holding["k"] is fresh
    assert checker.fence_of("k") == 1


# -- post-hoc checker: explicit orphan / in-flight paths ------------------------


def _request(key: str, grant: float, release=None, orphan=None) -> LockRequest:
    request = LockRequest(0, key, 0, 0, 0.1, 0.0)
    request.grant_time = grant
    request.release_time = release
    request.orphan_time = orphan
    return request


def test_post_hoc_excuses_crash_orphaned_holds():
    rows = [
        _request("k", grant=1.0, orphan=2.0),
        _request("k", grant=2.5, release=3.0),
    ]
    check_key_mutual_exclusion(rows)


def test_post_hoc_catches_grant_inside_orphaned_hold():
    rows = [
        _request("k", grant=1.0, orphan=4.0),
        _request("k", grant=2.5, release=3.0),
    ]
    with pytest.raises(MutualExclusionViolation):
        check_key_mutual_exclusion(rows)


def test_post_hoc_unreleased_hold_conflicts_with_everything_later():
    rows = [
        _request("k", grant=1.0),  # in flight at end of run: ends at +inf
        _request("k", grant=100.0, release=100.1),
    ]
    with pytest.raises(MutualExclusionViolation):
        check_key_mutual_exclusion(rows)


def test_post_hoc_skips_never_granted_requests():
    aborted = LockRequest(0, "k", 0, 0, 0.1, 0.0)
    aborted.abort_time = 5.0
    queued = LockRequest(1, "k", 0, 0, 0.1, 0.0)
    assert check_key_mutual_exclusion(
        [aborted, queued, _request("k", 1.0, release=2.0)]
    ) == 0


# -- retry policy ---------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(base=0.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(cap=0.1, base=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(deadline=-1.0)


def test_backoff_grows_then_saturates_at_cap():
    policy = RetryPolicy(base=0.5, multiplier=2.0, cap=4.0, jitter=0.0)
    rng = SeedSequence(0).derive("t")
    delays = [policy.backoff(attempt, rng) for attempt in range(8)]
    assert delays[:4] == [0.5, 1.0, 2.0, 4.0]
    assert all(d == 4.0 for d in delays[3:])


def test_derive_shard_crashes_validation():
    rng = SeedSequence(0).derive("t")
    with pytest.raises(ConfigurationError):
        derive_shard_crashes(rng, 3, 3, 60.0, 10.0, 2.0)  # nobody survives
    with pytest.raises(ConfigurationError):
        derive_shard_crashes(rng, 3, -1, 60.0, 10.0, 2.0)
    cycles = derive_shard_crashes(rng, 5, 2, 60.0, 10.0, 2.0)
    assert len(cycles) == 2
    assert len({c.site for c in cycles}) == 2
    for cycle in cycles:
        assert 0.0 < cycle.crash_at < 60.0
        assert cycle.recover_at == cycle.crash_at + 10.0
    permanent = derive_shard_crashes(rng, 5, 1, 60.0, 0.0, 2.0)
    assert permanent[0].recover_at is None


# -- idempotence ----------------------------------------------------------------


def test_duplicate_submission_is_dropped():
    sim, service = _single_shard_service(lease_window=0.0)
    request = service.acquire(client=0, key="k", hold=0.1)
    before = service.stats.duplicate_drops
    # A duplicated submission of an in-flight request bounces off the
    # pending filter and changes nothing.
    assert not service.submit(request)
    assert service.stats.duplicate_drops == before + 1
    sim.run(until=50.0)
    assert request.complete
    # Re-submitting a finished request is also a no-op, not a re-grant.
    assert not service.submit(request)
    assert service.stats.grants == 1


def test_acquire_deadline_aborts_unservable_requests():
    # All sites crashed: acquires can never be placed, and the deadline
    # turns endless retries into a bounded abort.
    sim, service = _single_shard_service(lease_window=0.0)
    policy = RetryPolicy(base=0.5, cap=2.0, jitter=0.0, deadline=5.0)
    service.retry = policy
    view = service.views[0]
    for site in range(5):
        view.crash(site)
    request = service.acquire(client=0, key="k", hold=0.1)
    sim.run(until=100.0)
    assert request.aborted
    assert not request.granted
    assert service.stats.aborted == 1
