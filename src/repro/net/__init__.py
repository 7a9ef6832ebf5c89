"""Real-network execution backend: the same sites on asyncio UDP sockets.

This package is the second implementation of the
:class:`~repro.substrate.Substrate` interface (the first is the
discrete-event :class:`~repro.sim.simulator.Simulator`): every protocol
site, the reliable-channel layer, and the whole trace/verification stack
run unchanged over real datagrams on localhost.

* :mod:`repro.net.wire` — binary datagram codec over the trace layer's
  message registry;
* :mod:`repro.net.substrate` — :class:`NetSubstrate`, wall-clock timers
  and UDP endpoints behind the substrate interface;
* :mod:`repro.net.config` — :class:`NetRunConfig`, the JSON-serializable
  run description shared by launcher and site processes;
* :mod:`repro.net.launcher` — :func:`run_net`, the process-per-site (or
  in-process) orchestrator returning a verified :class:`NetRunReport`;
* :mod:`repro.net.merge` — per-site ``repro-trace/1`` shard merging into
  one monitor-replayable stream;
* :mod:`repro.net.site_proc` — the ``python -m repro.net.site_proc``
  entry point one OS process per site runs.
"""

from repro.net.config import NetRunConfig
from repro.net.launcher import NetRunError, NetRunReport, run_net
from repro.net.merge import merge_records, merge_shard_files
from repro.net.substrate import NetSubstrate

__all__ = [
    "NetRunConfig",
    "NetRunError",
    "NetRunReport",
    "NetSubstrate",
    "merge_records",
    "merge_shard_files",
    "run_net",
]
