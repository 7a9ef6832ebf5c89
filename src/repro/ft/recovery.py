"""The full monitored fault-tolerant site.

:class:`MonitoredSite` — a :class:`~repro.core.faults.FaultTolerantSite`
with an embedded :class:`~repro.ft.detector.HeartbeatMonitor` — drives
the Section 6 recovery protocol fully message-driven: on suspicion it
broadcasts the paper's ``failure(i)`` notice. Deterministic experiments
use the oracle injector :func:`repro.ft.chaos.install_crash_cycles`
instead, which delivers ``failure(i)`` after a fixed detection latency
without heartbeat traffic polluting the message counters.
"""

from __future__ import annotations

from typing import Optional

from repro.core.faults import FaultTolerantSite
from repro.core.messages import FailureNotice
from repro.ft.detector import Heartbeat, HeartbeatMonitor
from repro.mutex.base import DurationSpec, RunListener
from repro.quorums.coterie import QuorumSystem
from repro.substrate import SiteId


class MonitoredSite(FaultTolerantSite):
    """Fault-tolerant site with heartbeat failure detection built in."""

    algorithm_name = "cao-singhal-ft-monitored"

    def __init__(
        self,
        site_id: SiteId,
        quorum_system: QuorumSystem,
        cs_duration: DurationSpec = 0.1,
        listener: Optional[RunListener] = None,
        hb_interval: float = 5.0,
        hb_timeout: float = 12.0,
        hb_lifetime: float = 10_000.0,
    ) -> None:
        super().__init__(site_id, quorum_system, cs_duration, listener)
        self.monitor = HeartbeatMonitor(
            node=self,
            peers=range(quorum_system.n),
            interval=hb_interval,
            timeout=hb_timeout,
            lifetime=hb_lifetime,
            on_suspect=self._on_suspect,
        )

    def on_start(self) -> None:
        self.monitor.start()

    def _on_suspect(self, suspect: SiteId) -> None:
        """Broadcast the paper's ``failure(i)`` and apply it locally."""
        notice = FailureNotice(failed_site=suspect)
        for peer in range(self.quorum_system.n):
            if peer not in (self.site_id, suspect) and peer not in self.known_failed:
                self.send(peer, notice)
        self.notify_failure(suspect)

    def on_message(self, src: SiteId, message: object) -> None:
        refuted = self.monitor.observe(src)
        if refuted is not None:
            # A presumed-dead site spoke: it survived (partition, not a
            # crash) or has rejoined. Withdraw the suspicion and re-admit
            # it — notify_recovery cleans any residue and unblocks
            # inaccessible requests.
            self.notify_recovery(refuted)
        if isinstance(message, Heartbeat):
            return
        super().on_message(src, message)
