"""Metrics snapshots and opt-in event-loop profiling.

Two observability primitives over a live simulation, both strictly
additive — neither is touched unless explicitly invoked, so a run with
profiling disabled keeps the golden kernel fingerprints byte-for-byte:

* :func:`snapshot` — a point-in-time dict of every kernel counter: the
  network's aggregate and per-site/per-type counters, the reliable
  transport's totals and per-channel windows, and per-site protocol
  progress (completed CS executions, backlog, lifecycle state).
* :class:`LoopProfiler` — passes itself as the ``observer`` of
  :meth:`~repro.sim.simulator.Simulator.run`, timing each
  event callback by its schedule label (``cs-hold``, ``rto``,
  ``ack-delay``, per-message delivery labels, ...). The event *history*
  is identical to a normal run — only wall-clock timing is added — so
  ``profiled_run`` returns the same summary a plain ``run_mutex`` does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.runner import RunConfig, RunResult, run_mutex
from repro.sim.simulator import Simulator


def snapshot(sim: Simulator, sites: Optional[list] = None) -> Dict[str, Any]:
    """Freeze every counter the kernel exposes at this instant.

    Safe to call mid-run (e.g. from a scheduled probe) or after; values
    are copies, so successive snapshots can be diffed.
    """
    out: Dict[str, Any] = {
        "time": sim.now,
        "events_processed": sim.events_processed,
        "pending_events": sim.pending_events(),
        "network": sim.network.stats.snapshot(),
    }
    if sim.transport is not None:
        out["transport"] = sim.transport.stats_dict()
        out["channels"] = sim.transport.channel_snapshot()
    if sites is not None:
        per_site: Dict[int, Dict[str, Any]] = {}
        inbound = sim.network.stats.by_destination
        for site in sites:
            per_site[site.site_id] = {
                "completed": site.completed,
                "backlog": site.backlog,
                "state": site.state.value,
                "crashed": site.crashed,
                "inbound": inbound.get(site.site_id, 0),
            }
        out["sites"] = per_site
    return out


class LoopProfiler:
    """Aggregates per-label event timings from an instrumented run.

    Labels come from :meth:`Simulator.schedule_call`; the unlabelled
    remainder (plain deliveries scheduled by the network carry their
    message ``type_name``) is grouped under ``"<unlabelled>"``.
    """

    def __init__(self) -> None:
        # label -> [count, total_seconds, max_seconds]
        self._acc: Dict[str, List[float]] = {}
        self.events = 0
        self.total_seconds = 0.0

    # -- the observer fed to Simulator.run --------------------------------

    def observe(self, label: str, elapsed: float) -> None:
        self.events += 1
        self.total_seconds += elapsed
        cell = self._acc.get(label or "<unlabelled>")
        if cell is None:
            self._acc[label or "<unlabelled>"] = [1, elapsed, elapsed]
            return
        cell[0] += 1
        cell[1] += elapsed
        if elapsed > cell[2]:
            cell[2] = elapsed

    # -- the loop hook fed to run_mutex ------------------------------------

    def loop(
        self,
        sim: Simulator,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        sim.run(until=until, max_events=max_events, observer=self.observe)

    # -- reporting ---------------------------------------------------------

    def rows(self) -> List[Tuple[str, int, float, float, float, float]]:
        """``(label, count, total_s, mean_us, max_us, share)`` rows,
        heaviest total first."""
        total = self.total_seconds or 1.0
        out = []
        for label, (count, acc, peak) in self._acc.items():
            out.append(
                (
                    label,
                    int(count),
                    acc,
                    acc / count * 1e6,
                    peak * 1e6,
                    acc / total,
                )
            )
        out.sort(key=lambda row: row[2], reverse=True)
        return out

    def report(self) -> str:
        """Human-readable table of where event-loop time went."""
        lines = [
            f"event-loop profile: {self.events} events, "
            f"{self.total_seconds * 1e3:.1f} ms in callbacks",
            f"  {'label':<18} {'count':>8} {'total ms':>9} "
            f"{'mean us':>8} {'max us':>8} {'share':>6}",
        ]
        for label, count, acc, mean_us, max_us, share in self.rows():
            lines.append(
                f"  {label:<18} {count:>8} {acc * 1e3:>9.2f} "
                f"{mean_us:>8.2f} {max_us:>8.1f} {share:>6.1%}"
            )
        return "\n".join(lines)


def profiled_run(config: RunConfig) -> Tuple[RunResult, LoopProfiler]:
    """Run one configured simulation under the event-loop profiler.

    The profiled run processes the identical event history as a plain
    ``run_mutex(config)`` — same summary, same verification — with the
    per-label timing breakdown as a second return value.
    """
    profiler = LoopProfiler()
    result = run_mutex(config, loop=profiler.loop)
    return result, profiler
