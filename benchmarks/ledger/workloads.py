"""The six workloads and the code that runs one rep of each.

A workload is a name, the reason it exists, and a function from the
benchmark seed to the one config object the program receives
(``RunConfig`` / ``LockRunConfig`` / ``NetRunConfig``); nothing else
crosses into the program. Sizes put one rep's run phase between one and
one and a half seconds on the reference 2-core box, so a run of
``catalog.RUN_SECONDS`` holds eight to thirteen reps; the *properties* in
each ``why`` are what must be kept if a count is ever retuned.

:func:`run_rep` executes one rep in the current process and returns raw
facts (phase times, wait samples, counters read from the public stats
surfaces). It is called in a fresh child process by ``run.py``; the
parent turns facts into metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from spans import Recorder

LEDGER_DIR = Path(__file__).resolve().parent

#: Wall seconds per simulation unit on the UDP workload. Not lower:
#: 0.0005 triggers ~2k spurious retransmits (the run is CPU-bound).
UDP_UNIT = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    #: Which entry point runs it: ``mutex`` = ``run_mutex``, ``locks`` =
    #: ``run_lock_service``, ``udp`` = ``run_net(spawn="inproc")``.
    kind: str
    why: str
    #: What one ``T`` of the wait metrics is on this workload.
    time_unit: str
    #: ``closed`` (a client's next request waits for its last) or ``open``.
    loop: str
    #: The closed loop's client count or the open loop's arrival rate.
    load: str
    make_config: Callable[[int], Any]
    #: Simulated workloads must repeat exactly, rep after rep.
    deterministic: bool = True


def _mutex_sim_heavy(seed: int):
    from repro.experiments.runner import RunConfig
    from repro.sim.network import UniformDelay
    from repro.workload.driver import SaturationWorkload

    return RunConfig(
        algorithm="cao-singhal",
        n_sites=49,
        quorum="grid",
        seed=seed,
        delay_model=UniformDelay(0.5, 1.5),
        cs_duration=0.05,
        workload=SaturationWorkload(80),
    )


def _mutex_sim_lossy(seed: int):
    from repro.experiments.runner import RunConfig
    from repro.sim.network import FaultModel, UniformDelay
    from repro.sim.transport import ReliableConfig
    from repro.workload.driver import SaturationWorkload

    return RunConfig(
        algorithm="cao-singhal",
        n_sites=25,
        quorum="grid",
        seed=seed,
        delay_model=UniformDelay(0.5, 1.5),
        cs_duration=0.05,
        workload=SaturationWorkload(100),
        fault_model=FaultModel(loss=0.05, duplicate=0.02, reorder=0.05),
        reliable=ReliableConfig(),
    )


def _locks_sim_hot(seed: int):
    from repro.locks.runner import LockRunConfig

    return LockRunConfig(
        shards=16, n_sites=9, n_keys=1_000, key_skew=1.2,
        arrival_rate=8.0, n_requests=24_000, seed=seed,
    )


def _locks_sim_cold(seed: int):
    from repro.locks.runner import LockRunConfig

    return LockRunConfig(
        shards=32, n_sites=9, n_keys=1_000_000, key_skew=0.0,
        arrival_rate=6.0, n_requests=10_000, seed=seed,
    )


def _locks_sim_crash(seed: int):
    from repro.locks.runner import LockRunConfig
    from repro.sim.network import FaultModel

    return LockRunConfig(
        shards=16, n_sites=5, n_keys=10_000, key_skew=0.5,
        arrival_rate=12.0, n_requests=15_000, seed=seed,
        crashes=4, crash_downtime=20.0, detection_delay=2.0,
        fault_model=FaultModel(loss=0.02),
    )


def _mutex_udp_inproc(seed: int):
    from repro.net.config import NetRunConfig

    return NetRunConfig(
        algorithm="cao-singhal", n_sites=9, requests_per_site=64,
        unit=UDP_UNIT, seed=seed, reliable=True,
    )


WORKLOADS = (
    Workload(
        "mutex_sim_heavy", "mutex",
        "Paper's heavy-load case: N=49 grid, saturated, raw network, no trace. "
        "Kernel and Cao-Singhal handlers dominate; transport, locks and net idle.",
        "simulated mean one-way delay", "closed", "49 clients x 80 requests",
        _mutex_sim_heavy,
    ),
    Workload(
        "mutex_sim_lossy", "mutex",
        "Same protocol, N=25, 5% loss, 2% duplication, 5% reorder under the "
        "reliable transport: retransmit, ack and dedupe paths run hot; locks and net idle.",
        "simulated mean one-way delay", "closed", "25 clients x 100 requests",
        _mutex_sim_lossy,
    ),
    Workload(
        "locks_sim_hot", "locks",
        "Lock service, 16 shards, 1000 keys Zipf 1.2, Poisson 8/T: hot keys are "
        "served by the front end's lease, batch and coalesce path (about a quarter lease hits).",
        "simulated mean one-way delay", "open", "Poisson 8 acquires/T, 24000 acquires",
        _locks_sim_hot,
    ),
    Workload(
        "locks_sim_cold", "locks",
        "Same service, 32 shards, 10^6 uniform keys, 6/T: lease hits under 5%, "
        "every acquire pays routing plus a full quorum round; a lease gain must not tax this.",
        "simulated mean one-way delay", "open", "Poisson 6 acquires/T, 10000 acquires",
        _locks_sim_cold,
    ),
    Workload(
        "locks_sim_crash", "locks",
        "16 shards x 5 sites, Zipf 0.5, 4 crash/rejoin cycles per shard, 2% loss, reliable "
        "transport: failover, retry/backoff, fencing and recovery run; the degraded-mode tail.",
        "simulated mean one-way delay", "open", "Poisson 12 acquires/T, 15000 acquires",
        _locks_sim_crash,
    ),
    Workload(
        "mutex_udp_inproc", "udp",
        "Real datagrams: N=9 on one asyncio loop, 5 ms per unit, reliable on. JSON "
        "codec, trace writing and asyncio dominate and the protocol is small: the inverse of mutex_sim_heavy.",
        "5 ms of wall clock (NetRunConfig.unit)", "closed", "9 clients x 64 requests",
        _mutex_udp_inproc,
        deterministic=False,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# -- phase boundaries, taken from outside --------------------------------------


class _SimRunClock:
    """Wall-clock edges of the one ``Simulator.run`` call a rep makes."""

    def __init__(self) -> None:
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def install(self) -> None:
        from repro.sim.simulator import Simulator

        inner = Simulator.run
        clock = self

        def run(sim, *args, **kwargs):
            if clock.start is None:
                clock.start = time.perf_counter()
            try:
                return inner(sim, *args, **kwargs)
            finally:
                clock.end = time.perf_counter()

        Simulator.run = run


class _UdpEpochTap:
    """The shared clock epoch ``run_net`` hands every substrate: trace
    time ``t`` happened at wall time ``epoch + t * unit``."""

    def __init__(self) -> None:
        self.epoch: Optional[float] = None

    def install(self) -> None:
        from repro.net.substrate import NetSubstrate

        inner = NetSubstrate.configure
        tap = self

        def configure(substrate, addresses, epoch_wall):
            tap.epoch = epoch_wall
            return inner(substrate, addresses, epoch_wall)

        NetSubstrate.configure = configure


# -- one rep ---------------------------------------------------------------------


def _transport_counters(transport: Any) -> Dict[str, int]:
    return dict(transport.stats_dict()) if transport is not None else {}


def _split_types(by_type: Dict[str, int]) -> Dict[str, int]:
    """Per message type, counting each part of a piggyback bundle under
    its own type and every bundle once under ``piggybacked``."""
    out: Dict[str, int] = {}
    for name, count in by_type.items():
        parts = name.split("+")
        if len(parts) > 1:
            out["piggybacked"] = out.get("piggybacked", 0) + count
        for part in parts:
            out[part] = out.get(part, 0) + count
    return out


def _run_on_simulator(
    entry: Callable[[Any], Any], workload: Workload, seed: int, rec: Optional[Recorder]
):
    """Call a simulator entry point on the workload's config, bracketed
    by the clocks the three phases are cut from. ``entry`` is imported by
    the caller *after* ``started`` so that set-up pays for the import."""
    clock = _SimRunClock()
    clock.install()
    config = workload.make_config(seed)
    if rec is not None:
        rec.active = True
    called = time.perf_counter()
    result = entry(config)
    returned = time.perf_counter()
    if rec is not None:
        rec.active = False
    return config, result, called, clock, returned


def _simulator_facts(
    sim: Any, rec: Optional[Recorder], imported_s: float, called: float,
    clock: _SimRunClock, returned: float,
) -> Dict[str, Any]:
    """Phase times and the counters every simulated rep reads the same way."""
    transport = _transport_counters(sim.transport)
    network = sim.network.stats
    if sim.transport is None:
        by_type = _split_types(network.by_type)
    elif rec is not None:
        by_type = _split_types(
            {k[4:]: v for k, v in rec.counts.items() if k.startswith("msg.")}
        )
    else:
        by_type = {}  # the network's own table also holds acks and retransmits
    return {
        "setup_s": imported_s + (clock.start - called),
        "run_s": clock.end - clock.start,
        "verify_s": returned - clock.end,
        "origin": called,
        "protocol_msgs": transport.get("data_sent", network.messages_sent),
        "by_type": by_type,
        "events": sim.events_processed,
        "network_sends": network.messages_sent,
        "transport": transport,
    }


def _rep_mutex(workload: Workload, seed: int, rec: Optional[Recorder]) -> Dict[str, Any]:
    started = time.perf_counter()
    from repro.experiments.runner import run_mutex

    imported_s = time.perf_counter() - started
    _config, result, called, clock, returned = _run_on_simulator(
        run_mutex, workload, seed, rec
    )
    summary = result.summary
    unit = summary.mean_delay_t
    submitted = len(result.collector.records)
    return {
        **_simulator_facts(result.sim, rec, imported_s, called, clock, returned),
        "ops": summary.completed,
        "submitted": submitted,
        "failed": submitted - summary.completed,
        "completed": summary.completed,
        "waits": [
            r.waiting_time / unit for r in result.collector.records if r.complete
        ],
        "sync_delay_T": summary.sync_delay_in_t,
        "mean_quorum_size": summary.mean_quorum_size,
        "breaches": (
            [f"{summary.unserved} requests unserved"] if summary.unserved else []
        ),
    }


def _rep_locks(workload: Workload, seed: int, rec: Optional[Recorder]) -> Dict[str, Any]:
    started = time.perf_counter()
    from repro.locks.runner import run_lock_service

    imported_s = time.perf_counter() - started
    config, result, called, clock, returned = _run_on_simulator(
        run_lock_service, workload, seed, rec
    )
    summary, service = result.summary, result.service
    # An op is an acquire the service granted. A hold later cut short by
    # its site's crash was still served; it counts against completion,
    # not against the wait distribution.
    granted = [r for r in service.requests if r.granted]
    breaches: List[str] = []
    if summary.violations:
        breaches.append(f"{summary.violations} conformance violations")
    resolved = summary.completed + summary.orphaned + summary.aborted
    if resolved != summary.submitted or summary.submitted != config.n_requests:
        breaches.append(
            f"ledger broken: completed {summary.completed} + orphaned "
            f"{summary.orphaned} + aborted {summary.aborted} != submitted "
            f"{summary.submitted}"
        )
    from repro.quorums.registry import make_quorum_system

    return {
        **_simulator_facts(result.sim, rec, imported_s, called, clock, returned),
        "ops": len(granted),
        "submitted": summary.submitted,
        "failed": summary.submitted - len(granted),
        "completed": summary.completed,
        "waits": [r.wait_time / config.delay for r in granted],
        "sync_delay_T": 0.0,  # a saturated-handoff figure; not defined here
        "mean_quorum_size": make_quorum_system(
            config.quorum or "grid", config.n_sites
        ).mean_quorum_size(),
        "locks": {
            "quorum_rounds": summary.quorum_rounds,
            "lease_hits": summary.lease_hits,
            "coalesced_batches": summary.coalesced_batches,
            "hotspot_factor": summary.hotspot_factor,
            "retries": summary.retries,
            "failovers": summary.failovers,
            "duplicate_drops": summary.duplicate_drops,
            "availability": summary.availability,
            "orphaned": summary.orphaned,
            "aborted": summary.aborted,
        },
        "breaches": breaches,
    }


def _rep_udp(workload: Workload, seed: int, rec: Optional[Recorder]) -> Dict[str, Any]:
    started = time.perf_counter()
    from repro.net.launcher import run_net
    from repro.obs.export import import_jsonl

    imported = time.perf_counter()
    tap = _UdpEpochTap()
    tap.install()
    config = workload.make_config(seed)
    run_dir = LEDGER_DIR / ".work" / f"{workload.name}-{seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if rec is not None:
            rec.active = True
        called_perf, called_wall = time.perf_counter(), time.time()
        report = run_net(config, run_dir=run_dir, spawn="inproc")
        returned_wall = time.time()
        if rec is not None:
            rec.active = False
        records = import_jsonl(report.merged_path).records
    finally:
        # A rep leaves nothing behind: shards, merged trace and all.
        shutil.rmtree(run_dir, ignore_errors=True)

    # Run window: first request -> last cs_exit in the merged trace.
    open_request: Dict[int, float] = {}
    waits: List[float] = []
    first_request = last_exit = None
    for record in records:
        if record.kind == "request":
            open_request[record.site] = record.time
            if first_request is None:
                first_request = record.time
        elif record.kind == "cs_enter":
            waits.append(record.time - open_request.pop(record.site))
        elif record.kind == "cs_exit":
            last_exit = record.time
    unit = config.unit
    run_begin_wall = tap.epoch + first_request * unit
    run_end_wall = tap.epoch + last_exit * unit

    transport: Dict[str, int] = {}
    net = {"datagrams_sent": 0, "datagrams_received": 0, "decode_errors": 0}
    for site in report.site_summaries:
        for name, value in site.get("transport", {}).items():
            transport[name] = transport.get(name, 0) + value
        for name in net:
            net[name] += site[name]
    net["trace_records"] = len(records)
    breaches = [f"monitor: {v}" for v in report.violations]
    if report.completed != report.submitted:
        breaches.append(
            f"{report.submitted - report.completed} requests unserved"
        )
    return {
        "setup_s": (imported - started) + (run_begin_wall - called_wall),
        "run_s": run_end_wall - run_begin_wall,
        "verify_s": returned_wall - run_end_wall,
        "origin": called_perf,
        "ops": report.completed,
        "submitted": report.submitted,
        "failed": report.submitted - report.completed,
        "completed": report.completed,
        "waits": waits,
        "protocol_msgs": report.messages_sent,
        "by_type": _split_types(report.by_type),
        "events": 0,
        "network_sends": 0,
        "sync_delay_T": report.monitor.get("handoff_mean") or 0.0,
        "mean_quorum_size": report.mean_quorum_size,
        "transport": transport,
        "net": net,
        "breaches": breaches,
    }


_REPS = {"mutex": _rep_mutex, "locks": _rep_locks, "udp": _rep_udp}


def run_rep(name: str, seed: int, rec: Optional[Recorder] = None) -> Dict[str, Any]:
    """One rep of workload ``name`` in this process; see module docstring.

    With a recorder (whose wrappers are already installed) the rep is the
    traced one. The returned ``digest`` covers everything a simulated rep
    must reproduce exactly.
    """
    workload = BY_NAME[name]
    facts = _REPS[workload.kind](workload, seed, rec)
    facts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    exact = {
        key: facts[key]
        for key in ("ops", "submitted", "failed", "completed", "protocol_msgs",
                    "events", "network_sends", "waits", "transport")
    }
    facts["digest"] = hashlib.sha256(
        json.dumps(exact, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return facts
