"""Network model: delay distributions and FIFO point-to-point channels.

The paper's system model (Section 2) assumes a fully connected network with
reliable channels, unpredictable but bounded message delay, and FIFO
delivery between any pair of sites. :class:`Network` implements exactly
that, with the delay drawn from a pluggable :class:`DelayModel`.

Delays are expressed in units of the mean message delay ``T`` so measured
synchronization delays read directly against the paper's ``T`` / ``2T``
claims. The fault-tolerance experiments additionally need crashed sites and
severed links, which the network models by silently dropping traffic to and
from crashed/partitioned endpoints (a crashed site neither sends nor
receives; the paper's Section 6 recovery protocol then repairs the
protocol-level state).

Beyond crashes and partitions, the network can run *adversarially*: a
pluggable :class:`FaultModel` injects per-channel message loss (independent
or bursty via a two-state Gilbert–Elliott chain), duplication, and
reordering (a message may bypass the FIFO clamp and pick up extra jitter,
so later sends overtake it). Fault decisions draw from a dedicated RNG
stream derived from the run seed, so chaotic runs replay exactly; with no
fault model installed the send path is byte-identical to the reliable
network. The :mod:`repro.sim.transport` layer rebuilds exactly-once FIFO
delivery on top.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.common import slotted_dataclass
from repro.errors import ConfigurationError, SimulationError

SiteId = int


class DelayModel(ABC):
    """Distribution of one-way message latencies.

    Implementations must guarantee strictly positive samples (a zero delay
    would let a message arrive in the same instant it was sent, which the
    paper's model excludes and which would break FIFO tie-breaking).
    """

    __slots__ = ()

    @abstractmethod
    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        """Return a latency sample for a message from ``src`` to ``dst``."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """The mean latency ``T`` of the model, used to normalize metrics."""


class ConstantDelay(DelayModel):
    """Every message takes exactly ``latency`` time units.

    Useful for analytical comparisons: with constant delay the measured
    synchronization delay of a correct run is *exactly* ``T`` or ``2T``.
    """

    __slots__ = ("_latency",)

    def __init__(self, latency: float = 1.0) -> None:
        if latency <= 0:
            raise ConfigurationError(f"latency must be positive, got {latency}")
        self._latency = float(latency)

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return self._latency

    @property
    def mean(self) -> float:
        return self._latency

    def __repr__(self) -> str:
        return f"ConstantDelay({self._latency})"


class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high]``."""

    __slots__ = ("_low", "_high")

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 < low <= high:
            raise ConfigurationError(
                f"need 0 < low <= high, got low={low}, high={high}"
            )
        self._low = float(low)
        self._high = float(high)

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return rng.uniform(self._low, self._high)

    @property
    def mean(self) -> float:
        return (self._low + self._high) / 2.0

    def __repr__(self) -> str:
        return f"UniformDelay({self._low}, {self._high})"


class LogNormalDelay(DelayModel):
    """Latency from a log-normal distribution — the classic fit for WAN
    round-trip times (most messages near the mode, a long right tail)."""

    __slots__ = ("_mean", "_sigma", "_mu")

    def __init__(self, mean: float = 1.0, sigma: float = 0.5) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be positive, got {mean}")
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self._mean = float(mean)
        self._sigma = float(sigma)
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve for mu.
        import math

        self._mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return rng.lognormvariate(self._mu, self._sigma)

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"LogNormalDelay(mean={self._mean}, sigma={self._sigma})"


class ParetoDelay(DelayModel):
    """Heavy-tailed latency (shifted Pareto): occasional extreme stragglers.

    A stress model for the protocol's race windows — forwarded replies and
    releases can be reordered arbitrarily far. ``alpha`` must exceed 1 so
    the mean exists; smaller alpha = heavier tail.
    """

    __slots__ = ("_mean", "_alpha", "_scale")

    def __init__(self, mean: float = 1.0, alpha: float = 2.5) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be positive, got {mean}")
        if alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must exceed 1 for a finite mean, got {alpha}"
            )
        self._mean = float(mean)
        self._alpha = float(alpha)
        # E[x_m * X] with X ~ Pareto(alpha) is x_m * alpha/(alpha-1).
        self._scale = mean * (alpha - 1.0) / alpha

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return self._scale * rng.paretovariate(self._alpha)

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"ParetoDelay(mean={self._mean}, alpha={self._alpha})"


class ExponentialDelay(DelayModel):
    """Latency drawn from a shifted exponential distribution.

    A pure exponential can sample arbitrarily close to zero; the paper's
    model requires positive delay, so the distribution is shifted by
    ``floor`` and scaled to keep the requested mean.
    """

    __slots__ = ("_mean", "_floor")

    def __init__(self, mean: float = 1.0, floor: float = 0.05) -> None:
        if mean <= floor:
            raise ConfigurationError(
                f"mean ({mean}) must exceed floor ({floor})"
            )
        self._mean = float(mean)
        self._floor = float(floor)

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return self._floor + rng.expovariate(1.0 / (self._mean - self._floor))

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self._mean}, floor={self._floor})"


class GilbertElliott:
    """Two-state burst-loss chain (Gilbert–Elliott model).

    Each channel is independently in a *good* or *bad* state; every send
    on the channel first takes one Markov step (good→bad with probability
    ``p_enter``, bad→good with ``p_exit``), then a message sent in the bad
    state is lost with probability ``loss`` (on top of the fault model's
    base loss). Small ``p_enter`` with small ``p_exit`` yields rare but
    long loss bursts — the regime that defeats naive single-retry schemes.
    """

    __slots__ = ("p_enter", "p_exit", "loss")

    def __init__(
        self, p_enter: float = 0.01, p_exit: float = 0.25, loss: float = 0.9
    ) -> None:
        for name, p in (("p_enter", p_enter), ("p_exit", p_exit), ("loss", loss)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {p}"
                )
        if p_exit <= 0.0:
            raise ConfigurationError("p_exit must be positive or bursts never end")
        self.p_enter = float(p_enter)
        self.p_exit = float(p_exit)
        self.loss = float(loss)

    def __repr__(self) -> str:
        return (
            f"GilbertElliott(p_enter={self.p_enter}, p_exit={self.p_exit}, "
            f"loss={self.loss})"
        )


class FaultModel:
    """Immutable description of channel-level fault injection.

    Pure configuration: per-run mutable state (the Gilbert–Elliott chain
    position per channel) lives in the :class:`Network`, so one model
    instance can parameterize many runs (and be fingerprinted by the trial
    cache) without cross-run leakage.

    Parameters
    ----------
    loss:
        Independent per-message drop probability.
    duplicate:
        Probability a message is delivered twice (the copy takes an
        independently sampled delay and never tightens the FIFO clamp).
    reorder:
        Probability a message bypasses the FIFO clamp: it picks up extra
        jitter, does not advance the channel's FIFO floor, and is
        therefore overtaken by later, faster sends.
    reorder_spread:
        Jitter magnitude for reordered messages, as a multiple of the
        delay model's mean ``T`` (actual jitter ~ U(0, spread*T)).
    burst:
        Optional :class:`GilbertElliott` burst-loss chain layered on top
        of ``loss``.
    chaos_seed:
        Decouples the fault stream from the run seed: the same simulation
        seed replayed under a different ``chaos_seed`` sees the same
        delays but a different fault pattern.
    """

    __slots__ = ("loss", "duplicate", "reorder", "reorder_spread", "burst", "chaos_seed")

    def __init__(
        self,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        reorder_spread: float = 2.0,
        burst: Optional[GilbertElliott] = None,
        chaos_seed: int = 0,
    ) -> None:
        for name, p in (("loss", loss), ("duplicate", duplicate), ("reorder", reorder)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {p}"
                )
        if reorder_spread < 0:
            raise ConfigurationError(
                f"reorder_spread must be >= 0, got {reorder_spread}"
            )
        if burst is not None and not isinstance(burst, GilbertElliott):
            raise ConfigurationError(
                f"burst must be a GilbertElliott instance, got {burst!r}"
            )
        self.loss = float(loss)
        self.duplicate = float(duplicate)
        self.reorder = float(reorder)
        self.reorder_spread = float(reorder_spread)
        self.burst = burst
        self.chaos_seed = int(chaos_seed)

    def __repr__(self) -> str:
        return (
            f"FaultModel(loss={self.loss}, duplicate={self.duplicate}, "
            f"reorder={self.reorder}, reorder_spread={self.reorder_spread}, "
            f"burst={self.burst!r}, chaos_seed={self.chaos_seed})"
        )


@slotted_dataclass
class NetworkStats:
    """Aggregate counters the metrics layer reads after a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    #: Fault-injected losses (distinct from crash/sever drops above).
    messages_lost: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    total_latency: float = 0.0
    by_type: Dict[str, int] = field(default_factory=dict)
    #: Messages addressed to each site — the arbitration-load signal used
    #: by experiment E10 (quorum constructions concentrate load very
    #: differently: grids are balanced, tree roots and wheel hubs are
    #: hotspots).
    by_destination: Dict[SiteId, int] = field(default_factory=dict)

    def record_send(self, type_name: str, dst: SiteId) -> None:
        self.messages_sent += 1
        self.by_type[type_name] = self.by_type.get(type_name, 0) + 1
        self.by_destination[dst] = self.by_destination.get(dst, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time copy of every counter (observability layer).

        Dict values are copied so successive snapshots are independent;
        ``mean_latency`` is derived per delivered message.
        """
        delivered = self.messages_delivered
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": delivered,
            "messages_dropped": self.messages_dropped,
            "messages_lost": self.messages_lost,
            "messages_duplicated": self.messages_duplicated,
            "messages_reordered": self.messages_reordered,
            "mean_latency": (self.total_latency / delivered) if delivered else 0.0,
            "by_type": dict(self.by_type),
            "by_destination": dict(self.by_destination),
        }


class Network:
    """Fully connected FIFO network with pluggable per-message delays.

    FIFO is enforced per ordered pair: the delivery time of each message is
    clamped to be strictly after the previous delivery on the same channel.
    This mirrors the common implementation of FIFO channels over a
    non-FIFO transport (sequence numbers + reordering buffer) without
    simulating the buffer itself.

    The network knows nothing about protocol messages; it transports opaque
    payloads and lets the scheduler own time. ``send`` returns the delivery
    time, which the trace layer records.
    """

    __slots__ = (
        "_sample",
        "_uniform_low",
        "_uniform_span",
        "_rng_random",
        "_mean_delay",
        "_rng",
        "_schedule",
        "_now",
        "_last_delivery",
        "_deliver_fn",
        "_crashed",
        "_incarnation",
        "_severed",
        "_faults",
        "_fault_rng",
        "_burst_bad",
        "_loss_override",
        "_delay_factor",
        "stats",
    )

    #: Minimal spacing between consecutive deliveries on one channel.
    FIFO_EPSILON = 1e-9

    def __init__(
        self,
        delay_model: DelayModel,
        rng: random.Random,
        schedule: Callable[..., Any],
        now: Callable[[], float],
        deliver: Callable[..., None],
        fault_model: Optional[FaultModel] = None,
        fault_rng: Optional[random.Random] = None,
    ) -> None:
        # The delay model is consulted once per send; bind its bound method
        # and mean up front so the hot path pays no repeated virtual lookup.
        self._sample = delay_model.sample
        self._mean_delay = delay_model.mean
        self._rng = rng
        self._rng_random = rng.random
        # Uniform delays (the default and the benchmark workhorse) are
        # sampled inline: ``low + span * random()`` is the exact
        # expression ``random.Random.uniform`` evaluates, so the sampled
        # floats are bit-identical while skipping two call frames.
        if type(delay_model) is UniformDelay:
            self._uniform_low = delay_model._low
            self._uniform_span = delay_model._high - delay_model._low
        else:
            self._uniform_low = None
            self._uniform_span = 0.0
        self._schedule = schedule
        self._now = now
        self._last_delivery: Dict[Tuple[SiteId, SiteId], float] = {}
        #: Scheduled once per due message as ``deliver(src, dst, payload,
        #: latency, inc)``; it owns the delivery-time drop checks and the
        #: delivered/latency accounting (``Simulator._deliver_event``).
        self._deliver_fn = deliver
        self._crashed: Set[SiteId] = set()
        #: Per-site crash count. A message in flight remembers its
        #: sender's incarnation at send time; a mismatch at delivery time
        #: means the sender crashed in between, and fail-stop semantics
        #: drop the message — even if the sender has already recovered.
        self._incarnation: Dict[SiteId, int] = {}
        self._severed: Set[Tuple[SiteId, SiteId]] = set()
        if fault_model is not None and fault_rng is None:
            raise ConfigurationError(
                "a fault model needs its own RNG stream (fault_rng)"
            )
        self._faults = fault_model
        self._fault_rng = fault_rng
        #: Per-channel Gilbert–Elliott state: True while the channel is in
        #: its bad (bursty-loss) state. Reset per run, not per model.
        self._burst_bad: Dict[Tuple[SiteId, SiteId], bool] = {}
        #: Chaos-engine runtime overlays (see repro.ft.chaos): an active
        #: loss burst replaces the model's base loss; a delay spike
        #: multiplies sampled latencies.
        self._loss_override: Optional[float] = None
        self._delay_factor = 1.0
        self.stats = NetworkStats()

    @property
    def mean_delay(self) -> float:
        """Mean one-way latency ``T`` of the configured delay model."""
        return self._mean_delay

    # -- failure injection -------------------------------------------------

    def crash(self, site: SiteId) -> None:
        """Stop delivering to and accepting traffic from ``site``.

        Messages already in flight toward a crashed site are dropped at
        delivery time, modelling a fail-stop crash. Messages in flight
        *from* the site are dropped too — permanently: the crash bumps
        the site's incarnation, so its pre-crash traffic can never
        arrive late, not even after the site recovers.
        """
        self._crashed.add(site)
        self._incarnation[site] = self._incarnation.get(site, 0) + 1

    def recover(self, site: SiteId) -> None:
        """Allow ``site`` to communicate again (crash-recovery model)."""
        self._crashed.discard(site)

    def sever(self, a: SiteId, b: SiteId) -> None:
        """Cut the bidirectional link between ``a`` and ``b``."""
        self._severed.add((a, b))
        self._severed.add((b, a))

    def heal(self, a: SiteId, b: SiteId) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._severed.discard((a, b))
        self._severed.discard((b, a))

    def is_crashed(self, site: SiteId) -> bool:
        """True if ``site`` is currently crashed."""
        return site in self._crashed

    # -- chaos overlays ----------------------------------------------------

    @property
    def has_faults(self) -> bool:
        """True when a :class:`FaultModel` is installed."""
        return self._faults is not None

    def set_loss_override(self, loss: Optional[float]) -> None:
        """Replace the fault model's base loss (``None`` restores it).

        Used by the chaos engine's scripted loss bursts; requires a fault
        model (even an all-zero one) so the override has a path to act on.
        """
        if self._faults is None:
            raise SimulationError(
                "loss override requires a fault model (install FaultModel())"
            )
        if loss is not None and not 0.0 <= loss <= 1.0:
            raise SimulationError(f"loss override must be in [0, 1], got {loss}")
        self._loss_override = loss

    def set_delay_factor(self, factor: float) -> None:
        """Scale every sampled latency by ``factor`` (chaos delay spikes).

        Only consulted while a fault model is installed, keeping the
        fault-free hot path untouched.
        """
        if self._faults is None:
            raise SimulationError(
                "delay factor requires a fault model (install FaultModel())"
            )
        if factor <= 0:
            raise SimulationError(f"delay factor must be positive, got {factor}")
        self._delay_factor = float(factor)

    # -- transport ---------------------------------------------------------

    def send(
        self,
        src: SiteId,
        dst: SiteId,
        payload: Any,
        type_name: str,
        piggybacked: bool = False,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Queue ``payload`` for FIFO delivery from ``src`` to ``dst``.

        Returns the delivery time, or ``None`` when the message was dropped
        because an endpoint is crashed or the link is severed. ``type_name``
        feeds the per-type message counters; a piggyback bundle is counted
        once under its combined name, following the paper's costing rule
        (Section 5: a piggybacked control message counts as one message).
        ``now`` lets the simulator pass its clock value directly (it is
        constant for the duration of one event callback), skipping the
        clock-callable indirection on the hot path.
        """
        if src == dst:
            raise SimulationError(
                "self-delivery must be handled locally by the node layer, "
                f"site {src} tried to send {type_name} to itself"
            )
        stats = self.stats
        if self._crashed or self._severed:
            if (
                src in self._crashed
                or dst in self._crashed
                or (src, dst) in self._severed
            ):
                stats.messages_dropped += 1
                return None

        stats.messages_sent += 1
        by_type = stats.by_type
        by_type[type_name] = by_type.get(type_name, 0) + 1
        by_destination = stats.by_destination
        by_destination[dst] = by_destination.get(dst, 0) + 1

        channel = (src, dst)
        if now is None:
            now = self._now()
        low = self._uniform_low
        if low is not None:
            # UniformDelay guarantees 0 < low <= high, so the sampled
            # delay is positive by construction and needs no check.
            delay = low + self._uniform_span * self._rng_random()
        else:
            delay = self._sample(self._rng, src, dst)
            if delay <= 0:
                raise SimulationError(
                    f"delay model produced non-positive delay {delay}"
                )

        faults = self._faults
        duplicated = False
        bypass_fifo = False
        if faults is not None:
            frng = self._fault_rng
            p_loss = (
                faults.loss if self._loss_override is None else self._loss_override
            )
            burst = faults.burst
            if burst is not None:
                bad = self._burst_bad.get(channel, False)
                if bad:
                    if frng.random() < burst.p_exit:
                        bad = False
                elif frng.random() < burst.p_enter:
                    bad = True
                self._burst_bad[channel] = bad
                if bad and burst.loss > p_loss:
                    p_loss = burst.loss
            if p_loss and frng.random() < p_loss:
                stats.messages_lost += 1
                return None
            delay *= self._delay_factor
            if faults.duplicate and frng.random() < faults.duplicate:
                duplicated = True
            if faults.reorder and frng.random() < faults.reorder:
                # A reordered message picks up extra jitter and neither
                # obeys nor advances the FIFO floor: later, faster sends
                # on the channel overtake it.
                bypass_fifo = True
                delay += frng.uniform(0.0, faults.reorder_spread * self._mean_delay)
                stats.messages_reordered += 1

        deliver_at = now + delay
        if not bypass_fifo:
            last_delivery = self._last_delivery
            prev = last_delivery.get(channel)
            if prev is not None:
                fifo_floor = prev + 1e-9  # FIFO_EPSILON, inlined as a constant
                if deliver_at < fifo_floor:
                    deliver_at = fifo_floor
            last_delivery[channel] = deliver_at
        inc = self._incarnation.get(src, 0) if self._incarnation else 0
        self._schedule(
            deliver_at,
            self._deliver_fn,
            (src, dst, payload, deliver_at - now, inc),
            type_name,
        )
        if duplicated:
            # The copy takes an independent delay (drawn from the fault
            # stream so the primary delay sequence is undisturbed) and
            # ignores the FIFO floor, like a stray retransmission.
            stats.messages_duplicated += 1
            dup_delay = self._sample(self._fault_rng, src, dst) * self._delay_factor
            self._schedule(
                now + dup_delay,
                self._deliver_fn,
                (src, dst, payload, dup_delay, inc),
                type_name,
            )
        return deliver_at
