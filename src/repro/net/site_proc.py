"""Entry point one OS process per site runs: ``python -m repro.net.site_proc``.

The launcher spawns one of these per site. The rendezvous protocol is
file-based inside the shared run directory (no control sockets, nothing
to deadlock on):

1. load ``config.json``, build the site from the algorithm registry;
2. bind a UDP socket on an ephemeral port, publish it via ``port-<i>``
   (written atomically: tmp file + rename);
3. wait for the launcher's ``addrbook.json`` — every site's address plus
   the shared clock epoch, set slightly in the future so all sites start
   their workload together;
4. run the saturation workload; every trace record streams to the
   write-through ``trace-<i>.jsonl`` shard as it happens;
5. once locally drained (all own requests served, no unacked outbound
   traffic), write ``done-<i>.json`` with a metrics summary — then *keep
   serving*: this site may still be an arbiter for slower peers;
6. exit cleanly on ``SIGTERM`` from the launcher (trace shard is valid
   at every instant, so nothing is lost), or with status 2 if the
   wall-clock deadline expires first.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path

import repro.core.site  # noqa: F401 - make_site imports it on first use; load it before any run
from repro.metrics.collector import MetricsCollector
from repro.mutex.registry import make_site
from repro.net import config as layout
from repro.net.config import NetRunConfig
from repro.net.substrate import JsonlTraceWriter, NetSubstrate
from repro.quorums.registry import make_quorum_system
from repro.workload.driver import SaturationWorkload

#: Poll interval for file rendezvous and drain detection (wall seconds).
POLL = 0.02


def build_substrate(config: NetRunConfig, site_id: int, run_dir):
    """Construct the site, its substrate, and its trace shard."""
    quorum_name = config.resolved_quorum()
    quorum_system = None
    if quorum_name is not None:
        quorum_system = make_quorum_system(quorum_name, config.n_sites)
        quorum_system.validate()
    collector = MetricsCollector()
    site = make_site(
        config.algorithm,
        site_id,
        config.n_sites,
        quorum_system,
        config.cs_duration,
        collector,
    )
    trace = JsonlTraceWriter(
        layout.trace_path(run_dir, site_id),
        meta={
            "algorithm": config.algorithm,
            "n_sites": config.n_sites,
            "seed": config.seed,
            "site": site_id,
            "substrate": "net",
            "quorum": quorum_name,
        },
    )
    substrate = NetSubstrate(site_id, config, trace)
    substrate.add_node(site)
    if config.reliable:
        substrate.install_transport(config.reliable_config())
    return substrate, site, collector


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


async def _await_file(path: Path, deadline_wall: float) -> str:
    """Poll for ``path`` until it exists (raises TimeoutError past the
    deadline). Returns its content once non-empty."""
    while True:
        if path.exists():
            text = path.read_text(encoding="utf-8")
            if text:
                return text
        if time.time() > deadline_wall:
            raise TimeoutError(f"timed out waiting for {path}")
        await asyncio.sleep(POLL)


def _summary(site_id, config, substrate, collector) -> dict:
    row = {
        "site": site_id,
        "submitted": config.requests_per_site,
        "completed": len(collector.completed),
        "messages_sent": substrate.stats.messages_sent,
        "by_type": dict(substrate.stats.by_type),
        "datagrams_sent": substrate.stats.datagrams_sent,
        "datagrams_received": substrate.stats.datagrams_received,
        "chaos_dropped": substrate.stats.chaos_dropped,
        "chaos_duplicated": substrate.stats.chaos_duplicated,
        "decode_errors": substrate.stats.decode_errors,
    }
    if substrate.transport is not None:
        row["transport"] = substrate.transport.stats_dict()
    return row


async def run_site(config: NetRunConfig, site_id: int, run_dir) -> int:
    """One site's whole life; returns the process exit status."""
    deadline_wall = time.time() + config.deadline
    substrate, site, collector = build_substrate(config, site_id, run_dir)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    port = await substrate.start()
    _atomic_write(layout.port_path(run_dir, site_id), str(port))

    book = json.loads(
        await _await_file(layout.addrbook_path(run_dir), deadline_wall)
    )
    addresses = {
        int(sid): (host, port) for sid, (host, port) in book["addresses"].items()
    }
    substrate.configure(addresses, epoch_wall=book["epoch"])
    # The epoch is slightly in the future: sleeping to it aligns every
    # site's time zero (and its first submissions) across processes.
    await asyncio.sleep(max(0.0, book["epoch"] - time.time()))
    substrate.start_nodes()
    SaturationWorkload(config.requests_per_site).install(substrate, [site])

    # Drain: all own requests served and nothing unacked in flight.
    done_written = False
    status = 0
    while not stop.is_set():
        if not done_written:
            drained = (
                len(collector.completed) >= config.requests_per_site
                and substrate.idle()
            )
            if drained:
                _atomic_write(
                    layout.done_path(run_dir, site_id),
                    json.dumps(_summary(site_id, config, substrate, collector)),
                )
                done_written = True
        if time.time() > deadline_wall:
            status = 0 if done_written else 2
            break
        try:
            await asyncio.wait_for(stop.wait(), timeout=POLL)
        except asyncio.TimeoutError:
            pass

    if not done_written:
        # Even on failure, leave the summary behind for diagnostics.
        _atomic_write(
            layout.done_path(run_dir, site_id),
            json.dumps(_summary(site_id, config, substrate, collector)),
        )
        if status == 0:
            status = 2
    substrate.close()
    trace = substrate.trace
    if isinstance(trace, JsonlTraceWriter):
        trace.close()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--site", type=int, required=True)
    args = parser.parse_args(argv)
    run_dir = Path(args.run_dir)
    config = NetRunConfig.load(layout.config_path(run_dir))
    try:
        return asyncio.run(run_site(config, args.site, run_dir))
    except TimeoutError as exc:
        print(f"site {args.site}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
