"""Configured lock-service runs: build, drive, verify, summarize.

Mirrors :mod:`repro.experiments.runner` for the multi-resource layer.
:class:`LockRunConfig` is deliberately value-only (scalars plus the
picklable fault/chaos dataclasses the experiments runner also carries):
it pickles across worker processes unchanged, and two equal configs are
guaranteed to describe byte-identical runs — the sampler, arrival
process, and delay model are constructed *inside*
:func:`run_lock_service` from named RNG streams, never passed in as
live objects.

Determinism contract (pinned by ``tests/test_lock_service.py``): the
client population is streamed from two dedicated streams —
``locks/arrivals`` for the submission times, ``locks/population`` for
the (client, key) draws — by one self-rescheduling arrival event, so
the event heap holds what is in flight, not the whole future. Each
stream is drawn strictly in order and by nothing else, so the schedule
is still a pure function of the config and seed, however the draws
interleave with protocol RNG usage during the run. Crash schedules
draw from shard-qualified streams (``lockshard{i}/crashes``) and retry
backoff from ``locks/retry``, so fault-injected runs stay
byte-deterministic too. Same config + seed ⇒
byte-identical summary dict, whether the trial runs inline, in a worker
process, or through :class:`repro.parallel.TrialPool` at any worker
count.

Failure semantics (DESIGN.md §10): with ``crashes > 0`` the shard
arbiters are :class:`~repro.core.faults.FaultTolerantSite` instances and
each shard suffers that many seeded crash/rejoin cycles. The drain
invariant relaxes from "every acquire completed" to "every acquire
reached a terminal state": ``completed + orphaned + aborted ==
n_requests``, where orphaned holds were granted but fenced off when
their front end crashed and aborted acquires exhausted the retry
budget without ever being granted. Every non-aborted acquire was
granted.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional

import repro.verify.invariants  # noqa: F401 - LockService.verify imports it inline; load it before any run
from repro.core.faults import FaultTolerantSite
from repro.errors import ConfigurationError
from repro.ft.chaos import ChaosSchedule, install_crash_cycles
from repro.locks.faults import RetryPolicy, derive_shard_crashes
from repro.locks.service import LockService
from repro.sim.network import ConstantDelay, FaultModel
from repro.sim.simulator import Simulator
from repro.workload.arrivals import PoissonArrivals, UniformKeys, ZipfKeys

__all__ = [
    "LockRunConfig",
    "LockRunResult",
    "LockServiceSummary",
    "run_lock_service",
    "run_lock_configs",
]


@dataclass
class LockRunConfig:
    """Declarative description of one lock-service run (values only)."""

    algorithm: str = "cao-singhal"
    n_sites: int = 9
    shards: int = 4
    quorum: Optional[str] = None  # defaulted per-algorithm ("grid")
    seed: int = 0
    #: Name space: keys are ``lock-0 .. lock-{n_keys-1}``.
    n_keys: int = 1_000
    #: Open-loop client population multiplexing acquires onto the sites.
    n_clients: int = 16
    #: Total acquire rate across the population (requests per time unit).
    arrival_rate: float = 2.0
    n_requests: int = 500
    hold_duration: float = 0.05
    #: ``0`` = uniform key popularity; ``> 0`` = Zipf exponent ``s``.
    key_skew: float = 0.0
    routing: str = "affinity"
    batch_max: int = 8
    lease: bool = True
    lease_window: float = 2.0
    #: Mean one-way delay ``T`` (scalar ⇒ ConstantDelay, keeps configs
    #: picklable; richer delay models go through LockService directly).
    delay: float = 1.0
    max_time: float = 1_000_000.0
    max_events: int = 20_000_000
    verify: bool = True
    #: Message-level fault injection on the shared network
    #: (loss/duplication/reorder), as in the single-resource runner.
    fault_model: Optional[FaultModel] = None
    #: Reliable-channel layer; ``None`` = auto (on iff faults present).
    reliable: Optional[bool] = None
    #: Seeded chaos overlay (loss bursts / delay spikes / link cuts over
    #: the whole node space). Its ``crashes`` knob, if set, supplies the
    #: per-shard crash count when ``crashes`` below is 0.
    chaos: Optional[ChaosSchedule] = None
    #: Seeded crash/rejoin cycles *per shard* (distinct sites each).
    crashes: int = 0
    #: Time until a crashed site recovers; ``0`` = permanent fail-stop.
    crash_downtime: float = 30.0
    #: Oracle failure-detection latency for crash cycles.
    detection_delay: float = 2.0
    #: Client-side retry/backoff policy (see RetryPolicy).
    retry_base: float = 0.5
    retry_cap: float = 8.0
    retry_jitter: float = 0.25
    max_attempts: int = 8
    #: Per-acquire deadline relative to submit; ``0`` disables.
    acquire_deadline: float = 0.0

    def effective_lease_window(self) -> float:
        return self.lease_window if self.lease else 0.0

    def effective_crashes(self) -> int:
        """Per-shard crash cycles: explicit knob, else the chaos one."""
        if self.crashes:
            return self.crashes
        return self.chaos.crashes if self.chaos is not None else 0

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            base=self.retry_base,
            cap=self.retry_cap,
            jitter=self.retry_jitter,
            max_attempts=self.max_attempts,
            deadline=self.acquire_deadline,
        )

    def make_sampler(self):
        """Key-popularity sampler implied by ``key_skew``."""
        if self.key_skew > 0:
            return ZipfKeys(self.n_keys, s=self.key_skew)
        return UniformKeys(self.n_keys)

    def run_trial(self) -> "LockServiceSummary":
        """Entry point :class:`repro.parallel.TrialPool` dispatches to."""
        return run_lock_service(self).summary


@dataclass
class LockServiceSummary:
    """Scalar digest of one lock-service run (stable, picklable)."""

    algorithm: str
    shards: int
    n_sites: int
    n_keys: int
    n_clients: int
    seed: int
    key_skew: float
    routing: str
    lease_window: float
    batch_max: int
    submitted: int
    completed: int
    violations: int
    duration: float
    messages_sent: int
    messages_per_acquire: float
    quorum_rounds: int
    lease_hits: int
    lease_hit_rate: float
    lease_expiries: int
    batches: int
    coalesced_batches: int
    mean_wait: float
    p95_wait: float
    p99_wait: float
    peak_concurrent_keys: int
    distinct_key_overlaps: int
    hotspot_factor: float
    crashes: int
    failovers: int
    retries: int
    aborted: int
    orphaned: int
    duplicate_drops: int
    availability: float
    shard_loads: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form; byte-stable under ``json.dumps(sort_keys=True)``."""
        out: Dict[str, object] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, list) else value
        return out

    def describe(self) -> str:
        """One-paragraph human summary for the CLI."""
        text = (
            f"{self.algorithm}: {self.completed}/{self.submitted} acquires "
            f"over {self.shards} shards x {self.n_sites} sites "
            f"({self.n_keys} keys, skew={self.key_skew:g}, "
            f"routing={self.routing})\n"
            f"  messages/acquire: {self.messages_per_acquire:.2f} "
            f"({self.messages_sent} total, {self.quorum_rounds} quorum "
            f"rounds, {self.lease_hits} lease hits = "
            f"{100 * self.lease_hit_rate:.1f}%)\n"
            f"  wait: mean {self.mean_wait:.3f} / p95 {self.p95_wait:.3f} "
            f"/ p99 {self.p99_wait:.3f}; "
            f"peak concurrent keys {self.peak_concurrent_keys}; "
            f"shard hotspot {self.hotspot_factor:.2f}; "
            f"violations {self.violations}"
        )
        if self.crashes:
            text += (
                f"\n  faults: {self.crashes} crashes, {self.failovers} "
                f"failovers ({self.retries} retries), {self.orphaned} "
                f"orphaned holds, {self.aborted} aborted; "
                f"availability {100 * self.availability:.2f}%"
            )
        return text


@dataclass
class LockRunResult:
    """Summary plus the live artifacts tests poke at."""

    summary: LockServiceSummary
    sim: Simulator
    service: LockService


def _validate(config: LockRunConfig) -> None:
    if config.n_keys < 1:
        raise ConfigurationError(f"n_keys must be >= 1, got {config.n_keys}")
    if config.n_clients < 1:
        raise ConfigurationError(
            f"n_clients must be >= 1, got {config.n_clients}"
        )
    if config.n_requests < 1:
        raise ConfigurationError(
            f"n_requests must be >= 1, got {config.n_requests}"
        )
    if config.hold_duration <= 0:
        raise ConfigurationError(
            f"hold_duration must be positive, got {config.hold_duration}"
        )
    if config.key_skew < 0:
        raise ConfigurationError(
            f"key_skew must be >= 0, got {config.key_skew}"
        )
    if config.arrival_rate <= 0:
        raise ConfigurationError(
            f"arrival_rate must be positive, got {config.arrival_rate}"
        )
    # routing / batch_max / lease_window are validated by LockService;
    # crash/retry knobs by RetryPolicy and derive_shard_crashes.


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(math.ceil(q * len(sorted_values))) - 1)
    return sorted_values[max(0, index)]


def _give_up_hook(service: LockService):
    """Channel give-ups → shard-local failure notices.

    When the reliable layer exhausts retries from global node ``src``
    toward ``dst``, the sending shard site has channel-level evidence
    its peer is gone; feed it to the Section 6 cleanup when the arbiter
    understands failures (FaultTolerantSite), else ignore it.
    """
    n = service.router.n_sites

    def give_up(src: int, dst: int) -> None:
        shard, local_src = divmod(src, n)
        if shard != dst // n:
            return  # cross-shard traffic does not exist; be safe anyway
        site = service.views[shard].nodes.get(local_src)
        if isinstance(site, FaultTolerantSite) and not site.crashed:
            site.notify_failure(dst - shard * n)

    return give_up


def _check_survivors_have_quorum(shard: int, sites, cycles) -> None:
    """Refuse permanent crashes that leave a survivor no live quorum: its
    acquires could never finish, and draining the run would only say so
    at the end."""
    victims = {c.site for c in cycles}
    qs = sites[0].quorum_system
    for site in sites:
        if site.site_id not in victims and (
            qs.quorum_avoiding(site.site_id, victims) is None
        ):
            raise ConfigurationError(
                f"shard {shard}: permanent crashes of sites "
                f"{sorted(victims)} leave site {site.site_id} no live "
                f"quorum in the {qs.name} coterie of {qs.n} sites"
            )


def run_lock_service(config: LockRunConfig) -> LockRunResult:
    """Run one configured lock-service simulation to completion.

    Builds the service, installs the open-loop client population (plus
    any configured fault injection and per-shard crash cycles), drains
    the simulator, verifies per-shard and per-key mutual exclusion
    (when ``config.verify``), and digests the run.
    """
    _validate(config)
    fault_model = config.fault_model
    if fault_model is None and config.chaos is not None:
        # A chaos schedule needs the network's fault layer switched on
        # even when the base model injects nothing itself.
        fault_model = FaultModel()
    sim = Simulator(
        seed=config.seed,
        delay_model=ConstantDelay(config.delay),
        fault_model=fault_model,
    )
    crashes = config.effective_crashes()
    service = LockService(
        sim,
        algorithm=config.algorithm,
        shards=config.shards,
        n_sites=config.n_sites,
        quorum=config.quorum,
        batch_max=config.batch_max,
        lease_window=config.effective_lease_window(),
        routing=config.routing,
        fault_tolerant=crashes > 0,
        retry=config.retry_policy(),
    )

    reliable = config.reliable
    if reliable is None:
        reliable = fault_model is not None
    if reliable:
        sim.install_transport()
        sim.transport.on_give_up = _give_up_hook(service)

    if config.chaos is not None:
        # Network-level chaos (bursts/spikes/cuts) applies to the whole
        # global node space; crashes are handled per shard below.
        schedule = dataclasses.replace(config.chaos, crashes=0)
        plan = schedule.materialize(config.shards * config.n_sites)
        plan.install(sim, [])

    horizon = config.n_requests / config.arrival_rate
    if crashes:
        downtime = config.crash_downtime
        if config.crashes == 0 and config.chaos is not None:
            downtime = config.chaos.crash_downtime
        for view in service.views:
            cycles = derive_shard_crashes(
                view.rng("crashes"),
                config.n_sites,
                crashes,
                horizon,
                downtime,
                config.detection_delay,
            )
            sites = [view.nodes[s] for s in range(config.n_sites)]
            if downtime == 0:
                _check_survivors_have_quorum(view.index, sites, cycles)
            install_crash_cycles(view, sites, cycles)

    # The population is streamed: one arrival event is queued at a time,
    # and firing it draws and queues its successor — see the module
    # docstring's determinism contract.
    times = islice(
        PoissonArrivals(config.arrival_rate).times(
            sim.rng("locks/arrivals"), math.inf
        ),
        config.n_requests,
    )
    population_rng = sim.rng("locks/population")
    sampler = config.make_sampler()

    def schedule_next() -> None:
        when = next(times, None)
        if when is not None:
            client = population_rng.randrange(config.n_clients)
            key = f"lock-{sampler.sample(population_rng)}"
            sim.schedule_at(when, arrive, (client, key), "acquire")

    def arrive(client: int, key: str) -> None:
        schedule_next()
        service.acquire(client, key, config.hold_duration)

    schedule_next()
    sim.start()
    sim.run(until=config.max_time, max_events=config.max_events)
    service.finalize_degraded()

    overlaps = 0
    if config.verify:
        if sim.pending_events() != 0:
            raise ConfigurationError(
                f"lock run hit its safety cap (time={sim.now:.1f}, "
                f"events={sim.events_processed}); raise max_time/max_events "
                "or shrink the workload"
            )
        overlaps = service.verify()
        resolved = (
            len(service.completed)
            + len(service.orphaned)
            + len(service.aborted)
        )
        if resolved != config.n_requests:
            raise ConfigurationError(
                f"run drained with {resolved} of {config.n_requests} "
                "acquires resolved (completed + orphaned + aborted)"
            )
        if crashes == 0 and len(service.completed) != config.n_requests:
            raise ConfigurationError(
                f"run drained with {len(service.completed)} of "
                f"{config.n_requests} acquires served"
            )

    stats = service.stats
    waits = sorted(r.wait_time for r in service.completed)
    completed = len(waits)
    duration = sim.last_event_time
    summary = LockServiceSummary(
        algorithm=config.algorithm,
        shards=config.shards,
        n_sites=config.n_sites,
        n_keys=config.n_keys,
        n_clients=config.n_clients,
        seed=config.seed,
        key_skew=config.key_skew,
        routing=config.routing,
        lease_window=config.effective_lease_window(),
        batch_max=config.batch_max,
        submitted=stats.acquires,
        completed=completed,
        violations=0,  # verify() raises on any; a summary implies zero
        duration=duration,
        messages_sent=sim.network.stats.messages_sent,
        messages_per_acquire=(
            sim.network.stats.messages_sent / completed if completed else 0.0
        ),
        quorum_rounds=stats.quorum_rounds,
        lease_hits=stats.lease_hits,
        lease_hit_rate=(stats.lease_hits / completed if completed else 0.0),
        lease_expiries=stats.lease_expiries,
        batches=stats.batches,
        coalesced_batches=stats.coalesced_batches,
        mean_wait=(sum(waits) / completed if completed else 0.0),
        p95_wait=_percentile(waits, 0.95),
        p99_wait=_percentile(waits, 0.99),
        peak_concurrent_keys=service.checker.peak_concurrent_keys,
        distinct_key_overlaps=overlaps,
        hotspot_factor=service.hotspot_factor(),
        crashes=stats.crashes,
        failovers=stats.failovers,
        retries=stats.retries,
        aborted=stats.aborted,
        orphaned=stats.orphaned,
        duplicate_drops=stats.duplicate_drops,
        availability=service.availability(duration),
        shard_loads=list(service.shard_loads),
    )
    return LockRunResult(summary=summary, sim=sim, service=service)


def run_lock_configs(
    configs: "List[LockRunConfig]",
    workers: Optional[int] = None,
) -> List[LockServiceSummary]:
    """Run a grid of lock configs through the parallel trial engine.

    Summaries come back in input order whatever the worker count (the
    same merge discipline as :func:`repro.experiments.runner.run_many`).
    """
    from repro.parallel.pool import TrialPool

    return TrialPool(workers=workers).run_configs(configs)
