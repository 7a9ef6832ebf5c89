"""Crash injection and client-side retry policy for the lock service.

Two halves of the service's failure story live here:

* **Server side** — :func:`derive_shard_crashes`, which draws one
  shard's :class:`~repro.ft.chaos.CrashCycle` list deterministically
  from a shard-qualified RNG stream. The service hands it to
  :func:`~repro.ft.chaos.install_crash_cycles` with the shard's view
  (:mod:`repro.locks.substrate`) as substrate, so the ``N``
  local protocol sites of shard ``s`` crash and rejoin inside the shared
  simulator. The mutex sites must be
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
from typing import List

from repro.common import slotted_dataclass
from repro.errors import ConfigurationError
from repro.ft.chaos import CrashCycle

__all__ = ["RetryPolicy", "derive_shard_crashes"]


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


def derive_shard_crashes(
    rng: random.Random,
    n_sites: int,
    crashes: int,
    horizon: float,
    downtime: float,
    detection_delay: float,
) -> List[CrashCycle]:
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
            CrashCycle(
                site=site,
                crash_at=crash_at,
                recover_at=(crash_at + downtime) if downtime > 0 else None,
                detection_delay=detection_delay,
            )
        )
    return cycles
