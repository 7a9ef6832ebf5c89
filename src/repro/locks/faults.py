"""Crash injection and client-side retry policy for the lock service.

Two halves of the service's failure story live here:

* **Server side** — :class:`ShardCrashCycle` entries (derived
  deterministically per shard from a shard-qualified RNG stream by
  :func:`derive_shard_crashes`) and :func:`install_shard_churn`, which
  schedules the oracle crash → detect → recover → readmit sequence the
  single-resource :class:`~repro.ft.recovery.ChurnPlan` uses, but
  translated through a :class:`~repro.locks.substrate.ShardView` so the
  ``N`` local protocol sites of shard ``s`` crash and rejoin inside the
  shared simulator. The mutex sites must be
  :class:`~repro.core.faults.FaultTolerantSite` instances — the Section 6
  recovery protocol (failure notices, lock recovery via probes, rejoin
  reconciliation) is what keeps the shard's CS live across the crash.
* **Client side** — :class:`RetryPolicy`, the seeded exponential-backoff
  schedule the service uses to re-submit a dead front end's stranded
  acquires against a surviving site. The schedule is a pure function of
  the policy and the RNG stream: same seed, same delays, byte-identical
  runs; every delay is strictly bounded by ``cap``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Sequence

from repro.common import slotted_dataclass
from repro.core.faults import FaultTolerantSite
from repro.errors import ConfigurationError
from repro.substrate import SiteId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.locks.substrate import ShardView

__all__ = [
    "RetryPolicy",
    "ShardCrashCycle",
    "derive_shard_crashes",
    "install_shard_churn",
]


@slotted_dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter for failover re-submission.

    ``backoff(attempt, rng)`` returns the delay before re-submitting a
    request on its ``attempt``-th retry (0-based): ``base * multiplier **
    attempt``, capped at ``cap``, then jittered multiplicatively by
    ``±jitter`` — and capped *again*, so the returned delay can never
    exceed ``cap`` whatever the jitter draw. ``max_attempts`` and
    ``deadline`` bound how long the service keeps trying before it
    aborts the acquire (``deadline`` is relative to submit time; ``0``
    disables the deadline).
    """

    base: float = 0.5
    multiplier: float = 2.0
    cap: float = 8.0
    jitter: float = 0.25
    max_attempts: int = 8
    deadline: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ConfigurationError(f"retry base must be > 0, got {self.base}")
        if self.multiplier < 1:
            raise ConfigurationError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )
        if self.cap < self.base:
            raise ConfigurationError(
                f"retry cap must be >= base, got cap={self.cap} "
                f"base={self.base}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(
                f"retry jitter must be in [0, 1], got {self.jitter}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.deadline < 0:
            raise ConfigurationError(
                f"deadline must be >= 0, got {self.deadline}"
            )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based), in [0, cap]."""
        raw = min(self.cap, self.base * self.multiplier ** attempt)
        jittered = raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
        return min(self.cap, jittered)


@slotted_dataclass(frozen=True)
class ShardCrashCycle:
    """One shard-local crash (and optional recovery) of one protocol site.

    ``site`` is the shard-*local* id; ``recover_at`` of ``None`` means a
    permanent fail-stop (the CrashPlan flavour), otherwise the site
    rejoins via ``reset_after_recovery`` + ``complete_rejoin``.
    """

    site: SiteId
    crash_at: float
    recover_at: "float | None" = None
    detection_delay: float = 2.0


def derive_shard_crashes(
    rng: random.Random,
    n_sites: int,
    crashes: int,
    horizon: float,
    downtime: float,
    detection_delay: float,
) -> List[ShardCrashCycle]:
    """Deterministic per-shard crash schedule from a shard RNG stream.

    Draws ``crashes`` cycles hitting *distinct* local sites at times
    spread over the middle of the arrival ``horizon`` (so the service is
    actually busy when the site dies), with ``downtime`` until recovery
    (``0`` = never recover). Passing the shard's own
    ``view.rng("crashes")`` stream keeps the schedule byte-deterministic
    per seed and independent across shards.
    """
    if crashes < 0:
        raise ConfigurationError(f"crashes must be >= 0, got {crashes}")
    if crashes >= n_sites:
        raise ConfigurationError(
            f"cannot crash {crashes} of {n_sites} sites per shard; at "
            "least one site must survive to absorb the failover"
        )
    if downtime < 0 or detection_delay < 0:
        raise ConfigurationError(
            "crash downtime and detection delay must be >= 0"
        )
    sites = rng.sample(range(n_sites), crashes)
    cycles = []
    for index, site in enumerate(sites):
        # Spread cycles over the middle of the horizon, uniformly within
        # each cycle's own slice so schedules stay distinct per seed.
        lo = horizon * (0.2 + 0.6 * index / max(1, crashes))
        hi = horizon * (0.2 + 0.6 * (index + 1) / max(1, crashes))
        crash_at = rng.uniform(lo, hi)
        cycles.append(
            ShardCrashCycle(
                site=site,
                crash_at=crash_at,
                recover_at=(crash_at + downtime) if downtime > 0 else None,
                detection_delay=detection_delay,
            )
        )
    return cycles


def install_shard_churn(
    view: "ShardView",
    sites: Sequence["FaultTolerantSite"],
    cycles: Sequence[ShardCrashCycle],
) -> None:
    """Schedule crash/detect/recover/readmit for one shard's cycles.

    Mirrors :meth:`repro.ft.recovery.ChurnPlan.install` with the id
    translation the sharded substrate needs: the simulator crashes the
    *global* node (which reaches the front end through the view's crash
    hooks), while failure/recovery notices use shard-*local* ids. The
    rejoining site's preserved backlog is cleared — the service already
    rerouted its queued acquires to a surviving site, so replaying them
    would double-submit.
    """
    by_id = {s.site_id: s for s in sites}
    for site in sites:
        if not isinstance(site, FaultTolerantSite):
            raise ConfigurationError(
                f"shard {view.index} site {site.site_id} is "
                f"{type(site).__name__}; crash cycles need "
                "FaultTolerantSite arbiters"
            )
    sim = view.sim
    for cycle in cycles:
        if cycle.site not in by_id:
            raise ConfigurationError(
                f"no site {cycle.site} in shard {view.index}"
            )

        def crash(c=cycle):
            view.crash(c.site)

        def detect(c=cycle):
            for s in sites:
                if s.site_id != c.site and not s.crashed:
                    s.notify_failure(c.site)

        def recover(c=cycle):
            view.recover(c.site)
            still_failed = {s.site_id for s in sites if s.crashed}
            by_id[c.site].reset_after_recovery(
                known_failed=still_failed, clear_backlog=True
            )

        def readmit(c=cycle):
            for s in sites:
                if s.site_id != c.site and not s.crashed:
                    s.notify_recovery(c.site)
            by_id[c.site].complete_rejoin()

        tag = f"{view.index}/{cycle.site}"
        sim.schedule(cycle.crash_at, crash, label=f"lock-crash:{tag}")
        sim.schedule(
            cycle.crash_at + cycle.detection_delay,
            detect,
            label=f"lock-detect:{tag}",
        )
        if cycle.recover_at is not None:
            sim.schedule(
                cycle.recover_at, recover, label=f"lock-recover:{tag}"
            )
            sim.schedule(
                cycle.recover_at + cycle.detection_delay,
                readmit,
                label=f"lock-readmit:{tag}",
            )
