"""Deterministic chaos engine: scripted and randomized fault schedules.

Two layers:

* :class:`FaultPlan` — an explicit, scripted composition of fault actions
  over a run: loss bursts (windows where every channel drops at an
  elevated rate), delay spikes (windows where latency is multiplied),
  link cuts (sever a channel, heal it later), and crash/recover cycles.
  ``install(sim, sites)`` schedules everything before the run starts.
* :class:`ChaosSchedule` — a frozen, seeded *recipe* that expands into a
  concrete :class:`FaultPlan` via :meth:`~ChaosSchedule.materialize`.
  The expansion is a pure function of ``(seed, parameters, n_sites)``,
  so the same schedule replayed on the same run config produces the
  same faults at the same instants — chaos runs are reproducible and
  cacheable like any other trial.

Loss bursts and delay spikes act through the adversarial branch of
:meth:`repro.sim.network.Network.send` (``set_loss_override`` /
``set_delay_factor``), so a plan that uses them requires the simulator to
be built with a :class:`~repro.sim.network.FaultModel` (an all-zero model
suffices; :func:`repro.experiments.runner.build_run` installs one
automatically when a chaos plan is configured). Crash cycles require
fault-tolerant sites (``notify_failure``/``reset_after_recovery``); the
plan hands them to :func:`install_crash_cycles`, the one Section 6
oracle injector, which the E7b/E11 experiments and the lock service's
per-shard crashes use too. Link cuts and heals work on any topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.substrate import SiteId
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class LossBurst:
    """Window ``[start, end)`` where every channel drops at rate ``loss``."""

    start: float
    end: float
    loss: float


@dataclass(frozen=True)
class DelaySpike:
    """Window ``[start, end)`` where sampled delays are multiplied by
    ``factor`` (congestion / route-flap modelling)."""

    start: float
    end: float
    factor: float


@dataclass(frozen=True)
class LinkCut:
    """Bidirectional sever of channel ``a <-> b`` over ``[start, end)``."""

    a: SiteId
    b: SiteId
    start: float
    end: float


@dataclass(frozen=True)
class CrashCycle:
    """Fail-stop crash of ``site`` at ``crash_at``; if ``recover_at`` is
    set the site later rejoins with volatile state reset, else it stays
    down. ``failure`` / ``recovery`` notices reach live peers
    ``detection_delay`` after each transition (oracle detector; see
    :func:`install_crash_cycles`)."""

    site: SiteId
    crash_at: float
    recover_at: Optional[float] = None
    detection_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.crash_at < 0:
            raise ConfigurationError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.recover_at is not None and self.recover_at <= self.crash_at:
            raise ConfigurationError(
                f"recover_at ({self.recover_at}) must exceed crash_at "
                f"({self.crash_at})"
            )
        if self.detection_delay < 0:
            raise ConfigurationError("detection_delay must be >= 0")


def install_crash_cycles(
    substrate, sites: Sequence, cycles: Sequence[CrashCycle]
) -> None:
    """Schedule the Section 6 oracle pipeline for every crash cycle.

    Per cycle, in list order: crash at ``crash_at``; ``failure(site)``
    to every live peer ``detection_delay`` later; and, with
    ``recover_at`` set, recovery with volatile state reset (seeded with
    the sites still down), then ``detection_delay`` later readmission:
    ``recovery(site)`` to every live peer and ``complete_rejoin``. A
    peer thus sees the recovery only after its failure cleanup ran
    (``notify_recovery`` forces the cleanup when notices race).

    ``substrate`` needs only ``schedule_call``, ``crash`` and
    ``recover``: the simulator, or a lock shard's view, whose crash
    hooks let the service fail over. ``sites`` are the fault-tolerant
    sites under the ids those take. Call before the run starts.
    """
    from repro.core.faults import FaultTolerantSite

    by_id = {s.site_id: s for s in sites}
    for site in sites:
        if not isinstance(site, FaultTolerantSite):
            raise ConfigurationError(
                f"crash cycles need fault-tolerant sites; site {site.site_id} "
                f"is {type(site).__name__}, which has no failure handling"
            )
    for cycle in cycles:
        if cycle.site not in by_id:
            raise ConfigurationError(f"no site {cycle.site} in this run")

    def detect(victim: SiteId) -> None:
        for s in sites:
            if s.site_id != victim and not s.crashed:
                s.notify_failure(victim)

    def recover(victim: SiteId) -> None:
        substrate.recover(victim)
        still_failed = {s.site_id for s in sites if s.crashed}
        by_id[victim].reset_after_recovery(known_failed=still_failed)

    def readmit(victim: SiteId) -> None:
        for s in sites:
            if s.site_id != victim and not s.crashed:
                s.notify_recovery(victim)
        by_id[victim].complete_rejoin()

    for c in cycles:
        steps = [("crash", c.crash_at, substrate.crash),
                 ("detect", c.crash_at + c.detection_delay, detect)]
        if c.recover_at is not None:
            steps += [("recover", c.recover_at, recover),
                      ("readmit", c.recover_at + c.detection_delay, readmit)]
        for kind, at, fn in steps:
            substrate.schedule_call(at, fn, (c.site,), f"{kind}:{c.site}")


@dataclass(frozen=True)
class FaultBudget:
    """Bounded fault vocabulary for the untimed interleaving explorer.

    The timed chaos engine above schedules faults at *instants*; the
    stateless model checker (:mod:`repro.verify.explore`) instead makes
    each fault an *action* that interleaves freely with message
    deliveries, bounded by this budget per schedule. The vocabulary is
    the untimed projection of :class:`FaultPlan`'s:

    * ``crashes`` — fail-stop crash cycles (crash → oracle detection on
      every live peer, as :func:`install_crash_cycles` schedules them);
    * ``recoveries`` — how many of those cycles later recover and rejoin
      (``recoveries <= crashes``; the first ``recoveries`` crashes get
      the full crash/detect/recover/readmit pipeline, the rest stay
      down);
    * ``cuts`` / ``cut_links`` — bidirectional link cuts drawn from the
      explicit ``cut_links`` whitelist, each healed later. In the
      untimed model a cut only *delays* the channel (the reliable
      transport's view of a sever), which delivery nondeterminism
      already subsumes — the action exists so cut/heal interleaves with
      the fault pipeline are still explicitly explored.

    Loss bursts and delay spikes have no untimed analogue: the explorer
    already quantifies over every assignment of delays.
    """

    crashes: int = 0
    recoveries: int = 0
    cuts: int = 0
    cut_links: Tuple[Tuple[SiteId, SiteId], ...] = ()
    #: Candidate crash victims; ``None`` means every site.
    crash_sites: Optional[Tuple[SiteId, ...]] = None

    def __post_init__(self) -> None:
        for name in ("crashes", "recoveries", "cuts"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.recoveries > self.crashes:
            raise ConfigurationError(
                f"recoveries ({self.recoveries}) cannot exceed crashes "
                f"({self.crashes})"
            )
        if self.cuts > 0 and not self.cut_links:
            raise ConfigurationError(
                "a cut budget needs explicit cut_links to draw from"
            )
        for a, b in self.cut_links:
            if a == b:
                raise ConfigurationError("cannot cut a site's channel to itself")
            if a > b:
                raise ConfigurationError(
                    f"cut_links must be normalized (a < b), got ({a}, {b})"
                )

    def __bool__(self) -> bool:
        return self.crashes > 0 or self.cuts > 0

    @classmethod
    def from_plan(cls, plan: "FaultPlan") -> "FaultBudget":
        """Project a timed :class:`FaultPlan` onto the untimed vocabulary.

        Crash cycles and link cuts keep their counts (and victims); loss
        bursts and delay spikes vanish — the explorer's delivery
        nondeterminism already covers every timing they could induce.
        """
        links = tuple(
            sorted({(min(c.a, c.b), max(c.a, c.b)) for c in plan.cuts})
        )
        victims = tuple(sorted({c.site for c in plan.crashes}))
        return cls(
            crashes=len(plan.crashes),
            recoveries=sum(
                1 for c in plan.crashes if c.recover_at is not None
            ),
            cuts=len(plan.cuts),
            cut_links=links,
            crash_sites=victims or None,
        )


class _Overlay:
    """Tracks which bursts/spikes are active and applies the max-severity
    combination to the network at every window boundary."""

    __slots__ = ("network", "bursts", "spikes")

    def __init__(self, network) -> None:
        self.network = network
        self.bursts: set = set()
        self.spikes: set = set()

    def enter_burst(self, burst: LossBurst) -> None:
        self.bursts.add(burst)
        self._apply()

    def exit_burst(self, burst: LossBurst) -> None:
        self.bursts.discard(burst)
        self._apply()

    def enter_spike(self, spike: DelaySpike) -> None:
        self.spikes.add(spike)
        self._apply()

    def exit_spike(self, spike: DelaySpike) -> None:
        self.spikes.discard(spike)
        self._apply()

    def _apply(self) -> None:
        self.network.set_loss_override(
            max(b.loss for b in self.bursts) if self.bursts else None
        )
        self.network.set_delay_factor(
            max(s.factor for s in self.spikes) if self.spikes else 1.0
        )


@dataclass
class FaultPlan:
    """Composable scripted fault schedule. Builders are chainable:

    ``FaultPlan().loss_burst(5, 9, 0.8).link_cut(0, 4, 10, 15)``
    """

    bursts: List[LossBurst] = field(default_factory=list)
    spikes: List[DelaySpike] = field(default_factory=list)
    cuts: List[LinkCut] = field(default_factory=list)
    crashes: List[CrashCycle] = field(default_factory=list)

    # -- builders ----------------------------------------------------------

    def loss_burst(self, start: float, end: float, loss: float) -> "FaultPlan":
        """All channels drop at rate ``loss`` during ``[start, end)``."""
        _check_window(start, end)
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError(f"burst loss must be in [0, 1], got {loss}")
        self.bursts.append(LossBurst(start, end, loss))
        return self

    def delay_spike(self, start: float, end: float, factor: float) -> "FaultPlan":
        """Latency is multiplied by ``factor`` during ``[start, end)``."""
        _check_window(start, end)
        if factor <= 0:
            raise ConfigurationError(f"delay factor must be positive, got {factor}")
        self.spikes.append(DelaySpike(start, end, factor))
        return self

    def link_cut(self, a: SiteId, b: SiteId, start: float, end: float) -> "FaultPlan":
        """Sever channel ``a <-> b`` at ``start``, heal it at ``end``."""
        _check_window(start, end)
        if a == b:
            raise ConfigurationError("cannot cut a site's channel to itself")
        self.cuts.append(LinkCut(a, b, start, end))
        return self

    def crash(
        self,
        site: SiteId,
        crash_at: float,
        recover_at: Optional[float] = None,
        detection_delay: float = 2.0,
    ) -> "FaultPlan":
        """Crash ``site`` at ``crash_at``; optionally recover later."""
        self.crashes.append(CrashCycle(site, crash_at, recover_at, detection_delay))
        return self

    # -- installation ------------------------------------------------------

    def install(self, sim: Simulator, sites: Sequence) -> None:
        """Schedule every action on ``sim``. Call before ``sim.start()``
        (all times are measured from simulation time 0)."""
        if (self.bursts or self.spikes) and not sim.network.has_faults:
            raise ConfigurationError(
                "loss bursts / delay spikes need the adversarial network: "
                "build the simulator with a FaultModel (an all-zero "
                "FaultModel() is enough)"
            )
        overlay = _Overlay(sim.network)
        for burst in self.bursts:
            sim.schedule_call(
                burst.start, overlay.enter_burst, (burst,), "chaos:burst-on"
            )
            sim.schedule_call(
                burst.end, overlay.exit_burst, (burst,), "chaos:burst-off"
            )
        for spike in self.spikes:
            sim.schedule_call(
                spike.start, overlay.enter_spike, (spike,), "chaos:spike-on"
            )
            sim.schedule_call(
                spike.end, overlay.exit_spike, (spike,), "chaos:spike-off"
            )
        for cut in self.cuts:
            sim.schedule_call(
                cut.start, sim.network.sever, (cut.a, cut.b), "chaos:sever"
            )
            sim.schedule_call(
                cut.end, sim.network.heal, (cut.a, cut.b), "chaos:heal"
            )
        if self.crashes:
            install_crash_cycles(sim, sites, self.crashes)


@dataclass(frozen=True)
class ChaosSchedule:
    """Seeded recipe for a randomized :class:`FaultPlan`.

    ``materialize(n_sites)`` draws window placements and victims from a
    private ``random.Random(seed)`` — fully deterministic, independent of
    the simulation's own RNG streams, and safe to share across processes
    (the frozen dataclass pickles and fingerprints like plain data).
    """

    seed: int = 0
    horizon: float = 60.0
    loss_bursts: int = 2
    burst_duration: float = 4.0
    burst_loss: float = 0.6
    delay_spikes: int = 1
    spike_duration: float = 3.0
    spike_factor: float = 4.0
    link_cuts: int = 1
    cut_duration: float = 5.0
    crashes: int = 0
    crash_downtime: float = 10.0
    detection_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        for name in ("loss_bursts", "delay_spikes", "link_cuts", "crashes"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in (
            "burst_duration",
            "spike_duration",
            "cut_duration",
            "crash_downtime",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if not 0.0 <= self.burst_loss <= 1.0:
            raise ConfigurationError("burst_loss must be in [0, 1]")
        if self.spike_factor <= 0:
            raise ConfigurationError("spike_factor must be positive")
        if self.detection_delay < 0:
            raise ConfigurationError("detection_delay must be >= 0")

    def materialize(self, n_sites: int) -> FaultPlan:
        """Expand into a concrete plan for an ``n_sites``-site run.

        Crash victims are drawn so that no site's down windows overlap;
        a draw that would overlap is redrawn among the free sites, and
        :class:`ConfigurationError` is raised when none is free.
        """
        if n_sites < 2:
            raise ConfigurationError("chaos needs at least 2 sites")
        rng = random.Random(self.seed)
        plan = FaultPlan()

        def window(duration: float) -> float:
            return rng.uniform(0.0, max(self.horizon - duration, 0.0))

        for _ in range(self.loss_bursts):
            start = window(self.burst_duration)
            plan.loss_burst(start, start + self.burst_duration, self.burst_loss)
        for _ in range(self.delay_spikes):
            start = window(self.spike_duration)
            plan.delay_spike(start, start + self.spike_duration, self.spike_factor)
        for _ in range(self.link_cuts):
            a, b = rng.sample(range(n_sites), 2)
            start = window(self.cut_duration)
            plan.link_cut(a, b, start, start + self.cut_duration)
        down: List[Tuple[SiteId, float, float]] = []

        def is_free(site: SiteId, start: float, end: float) -> bool:
            return all(
                other != site or end < lo or hi < start for other, lo, hi in down
            )

        for _ in range(self.crashes):
            start = window(self.crash_downtime)
            end = start + self.crash_downtime
            site = rng.randrange(n_sites)
            if not is_free(site, start, end):
                # A second crash inside a site's down window would hit
                # a dead site, then reset and readmit it early: redraw
                # among the sites that are up over this whole window.
                free = [s for s in range(n_sites) if is_free(s, start, end)]
                if not free:
                    raise ConfigurationError(
                        f"no site is free to crash over [{start:.3f}, "
                        f"{end:.3f}]: all {n_sites} are already down then"
                    )
                site = rng.choice(free)
            down.append((site, start, end))
            plan.crash(site, start, end, self.detection_delay)
        return plan


#: Named recipes for the CLI's ``--fault-plan`` flag.
CHAOS_PRESETS = {
    "loss-burst": dict(loss_bursts=3, delay_spikes=0, link_cuts=0, crashes=0),
    "jitter-storm": dict(
        loss_bursts=0, delay_spikes=4, link_cuts=0, crashes=0, spike_factor=6.0
    ),
    "partition": dict(loss_bursts=0, delay_spikes=0, link_cuts=3, crashes=0),
    "churn": dict(loss_bursts=0, delay_spikes=0, link_cuts=0, crashes=2),
    "mixed": dict(loss_bursts=2, delay_spikes=1, link_cuts=1, crashes=0),
}


def chaos_preset(name: str, seed: int = 0, horizon: float = 60.0) -> ChaosSchedule:
    """Build a named :class:`ChaosSchedule` recipe for the CLI."""
    try:
        overrides = CHAOS_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; choose from "
            f"{sorted(CHAOS_PRESETS)}"
        ) from None
    return ChaosSchedule(seed=seed, horizon=horizon, **overrides)


def _check_window(start: float, end: float) -> None:
    if start < 0 or end <= start:
        raise ConfigurationError(
            f"need 0 <= start < end, got start={start}, end={end}"
        )
