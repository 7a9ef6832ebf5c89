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

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "NetRunConfig": "repro.net.config",
        "NetRunError": "repro.net.launcher",
        "NetRunReport": "repro.net.launcher",
        "run_net": "repro.net.launcher",
        "merge_records": "repro.net.merge",
        "merge_shard_files": "repro.net.merge",
        "NetSubstrate": "repro.net.substrate",
    },
)
