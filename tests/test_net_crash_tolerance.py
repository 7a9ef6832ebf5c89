"""Launcher crash-harvest smoke: SIGKILL one site process mid-run.

The process-per-site deployment must degrade the way the failure model
promises (DESIGN.md §10): a site killed with ``SIGKILL`` — no cleanup,
no goodbye, a torn trace shard at worst — must not poison the run.
With ``tolerate_crashes`` the launcher keeps the survivors going,
harvests whatever shards exist, and the merged trace still replays
through the *same* :class:`~repro.obs.monitor.ProtocolMonitor` the
simulator uses, without crashing the monitor. Survivors whose quorums
contained the victim exhaust their retransmissions and take the
reliable layer's give-up path, which the transport counters witness.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.net import NetRunConfig, run_net
from repro.net import config as layout
from repro.obs.export import import_jsonl
from repro.obs.monitor import ProtocolMonitor

VICTIM = 0


def test_sigkilled_site_does_not_poison_the_merged_trace(tmp_path):
    config = NetRunConfig(
        algorithm="cao-singhal",
        n_sites=4,
        requests_per_site=3,
        seed=13,
        unit=0.1,
        # Datagrams arrive in microseconds whatever the unit, so the CS
        # hold time is what spaces the workload out: 50 ms per CS puts
        # ~0.5 s between the victim's first entry and the survivors' last
        # request, a hundred polls of the kill loop below.
        cs_duration=0.5,
        # No pure ack before the first CS is over: the grants the victim
        # entered on are still unacknowledged if the kill lands inside it.
        ack_delay=1.0,
        # Few, quick retries: survivors stuck on the victim's quorum
        # reach the give-up path well inside the deadline.
        max_retries=3,
        deadline=12.0,
    )
    run_dir = tmp_path / "net-crash"
    result = {}

    def orchestrate():
        result["report"] = run_net(
            config, run_dir=run_dir, spawn="process", tolerate_crashes=True
        )

    thread = threading.Thread(target=orchestrate)
    thread.start()
    try:
        # Kill on an event, not a timer: the victim's write-through trace
        # shard shows its first CS entry. At least two of its requests
        # are then unserved, and the survivors with the victim in their
        # quorum either hold unacknowledged grants to it or have yet to
        # send it their next request or release.
        shard = layout.trace_path(run_dir, VICTIM)
        entry_deadline = time.time() + 30.0
        while not (shard.exists() and '"cs_enter"' in shard.read_text("utf-8")):
            assert time.time() < entry_deadline, "victim never entered the CS"
            assert thread.is_alive(), "launcher died before the victim's first CS"
            time.sleep(0.005)
        victim_pid = int(
            layout.pid_path(run_dir, VICTIM).read_text(encoding="utf-8")
        )
        os.kill(victim_pid, signal.SIGKILL)
    finally:
        thread.join(timeout=90.0)
    assert not thread.is_alive(), "launcher never returned"

    report = result["report"]
    # The run was genuinely degraded, not silently perfect or empty:
    # the victim's requests are (at least partly) missing, while the
    # survivors' work was harvested.
    assert report.completed < config.n_sites * config.requests_per_site
    assert report.monitor["records"] > 0

    # The merged trace exists and replays cleanly through a *fresh*
    # monitor — the launcher's verdict wasn't a fluke of shared state.
    merged = import_jsonl(report.merged_path)
    ProtocolMonitor(strict=False).replay(merged.records)

    # At least one survivor exhausted retransmissions toward the dead
    # site and took the reliable layer's give-up path.
    give_ups = sum(
        row.get("transport", {}).get("give_ups", 0)
        for row in report.site_summaries
        if row["site"] != VICTIM
    )
    assert give_ups >= 1, (
        f"no survivor gave up on the killed site: {report.site_summaries}"
    )
