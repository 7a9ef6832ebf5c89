"""Orchestrate one real-network run and verify it like a simulated one.

:func:`run_net` supports two spawn modes:

* ``"process"`` — one OS process per site (``repro.net.site_proc``),
  coordinated through files in a shared run directory. This is the
  honest distributed deployment: separate interpreters, separate GILs,
  real scheduling noise, real datagrams.
* ``"inproc"`` — every site gets its own :class:`NetSubstrate` and UDP
  socket inside one asyncio loop in *this* process. Same wire format,
  same substrate code, no fork/exec overhead: the mode CI smoke tests
  use to cover every algorithm quickly.

Either way the output is the same: per-site ``repro-trace/1`` shards,
merged into one stream and replayed through the runtime
:class:`~repro.obs.monitor.ProtocolMonitor` — the *identical* checker the
simulator uses, with zero changes — so mutual exclusion, per-arbiter
single grant, transfer-honoured, and quorum consistency are verified on
real executions too. The :class:`NetRunReport` carries the verdicts plus
the paper's headline metric: messages per CS over the mean quorum size
(``message_complexity_c``), which Section 5 bounds to ``3 <= c <= 6``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net import config as layout
from repro.net.config import NetRunConfig
from repro.net.merge import merge_shard_files
from repro.net.site_proc import _summary, build_substrate
from repro.obs.monitor import ProtocolMonitor
from repro.quorums.registry import make_quorum_system
from repro.sim.trace import Trace
from repro.workload.driver import SaturationWorkload

#: Poll interval for the file rendezvous (wall seconds).
POLL = 0.02
#: How far in the future the shared epoch is set: every site must have
#: read the address book and be waiting before time zero.
EPOCH_LEAD = {"process": 0.3, "inproc": 0.05}


class NetRunError(SimulationError):
    """A real-network run failed to complete (timeout, dead site, ...)."""


@dataclass
class NetRunReport:
    """Everything a verified real-network run produced."""

    algorithm: str
    n_sites: int
    spawn: str
    submitted: int
    completed: int
    #: Protocol messages summed over sites (acks/retransmits excluded).
    messages_sent: int
    by_type: Dict[str, int]
    messages_per_cs: Optional[float]
    mean_quorum_size: Optional[float]
    #: ``messages_per_cs / mean_quorum_size`` — the paper's ``c``.
    message_complexity_c: Optional[float]
    violations: List[str]
    monitor: Dict[str, Any]
    run_dir: str
    merged_path: str
    wall_seconds: float
    site_summaries: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the monitor found no invariant violations."""
        return not self.violations


# -- process mode ------------------------------------------------------------


def _abort(procs: List[subprocess.Popen], run_dir: Path, why: str) -> "NetRunError":
    """Kill every child and build an error carrying their stderr tails."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                pass
    tails = []
    for i in range(len(procs)):
        log = run_dir / f"stderr-{i}.log"
        if log.exists():
            tail = log.read_text(encoding="utf-8").strip()[-500:]
            if tail:
                tails.append(f"--- site {i} stderr ---\n{tail}")
    detail = "\n".join(tails)
    return NetRunError(why + ("\n" + detail if detail else ""))


def _wait_for_files(
    paths: List[Path],
    procs: List[subprocess.Popen],
    run_dir: Path,
    deadline_wall: float,
    what: str,
    tolerate: bool = False,
) -> "set[int]":
    """Wait for one file per site; returns the sites that never produced one.

    Strict mode (the default) aborts the whole run the moment a site dies
    or the deadline passes — the answer would not be trustworthy. Tolerant
    mode is the crash-harvest path: a dead site merely stops being waited
    on, a deadline stops the wait for whoever is left (survivors stuck
    retrying toward a dead quorum member), and the caller salvages what
    the remaining sites produced.
    """
    expected = {i: path for i, path in enumerate(paths)}
    lost: "set[int]" = set()
    while True:
        for i in [i for i, path in expected.items() if path.exists()]:
            del expected[i]
        if not expected:
            return lost
        for i, proc in enumerate(procs):
            code = proc.poll()
            if code not in (None, 0):
                if not tolerate:
                    raise _abort(
                        procs, run_dir, f"site {i} exited {code} before {what}"
                    )
                if i in expected:
                    lost.add(i)
                    del expected[i]
        if not expected:
            return lost
        if time.time() > deadline_wall:
            if tolerate:
                lost.update(expected)
                return lost
            raise _abort(
                procs,
                run_dir,
                f"timed out waiting for {what} "
                f"({len(expected)}/{len(paths)} missing)",
            )
        time.sleep(POLL)


def _run_process_mode(
    config: NetRunConfig, run_dir: Path, tolerate_crashes: bool = False
) -> List[Dict[str, Any]]:
    layout.config_path(run_dir).write_text(config.to_json(), encoding="utf-8")
    env = os.environ.copy()
    # The children must import repro from the same tree as this process.
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    parts = [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))

    procs: List[subprocess.Popen] = []
    deadline_wall = time.time() + config.deadline
    try:
        for i in range(config.n_sites):
            stderr = open(run_dir / f"stderr-{i}.log", "w", encoding="utf-8")
            with stderr:
                procs.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro.net.site_proc",
                            "--run-dir",
                            str(run_dir),
                            "--site",
                            str(i),
                        ],
                        stdout=subprocess.DEVNULL,
                        stderr=stderr,
                        env=env,
                    )
                )
            layout.pid_path(run_dir, i).write_text(
                str(procs[-1].pid), encoding="utf-8"
            )
        sites = range(config.n_sites)
        # The rendezvous phase is always strict: a site lost before the
        # address book exists is a setup failure, not a mid-run crash.
        _wait_for_files(
            [layout.port_path(run_dir, i) for i in sites],
            procs,
            run_dir,
            deadline_wall,
            "port files",
        )
        addresses = {
            str(i): [
                config.host,
                int(layout.port_path(run_dir, i).read_text(encoding="utf-8")),
            ]
            for i in sites
        }
        book = {"epoch": time.time() + EPOCH_LEAD["process"], "addresses": addresses}
        tmp = run_dir / "addrbook.json.tmp"
        tmp.write_text(json.dumps(book), encoding="utf-8")
        os.replace(tmp, layout.addrbook_path(run_dir))

        lost = _wait_for_files(
            [layout.done_path(run_dir, i) for i in sites],
            procs,
            run_dir,
            deadline_wall,
            "done files",
            tolerate=tolerate_crashes,
        )
        # Let trailing acks/releases settle before stopping arbiters.
        time.sleep(max(0.2, 4 * config.ack_delay * config.unit))
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for i, proc in enumerate(procs):
            try:
                code = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                if tolerate_crashes:
                    proc.kill()
                    proc.wait(timeout=5)
                    continue
                raise _abort(procs, run_dir, f"site {i} ignored SIGTERM")
            if code != 0 and not tolerate_crashes:
                raise _abort(procs, run_dir, f"site {i} exited {code}")
    except BaseException:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        raise
    # Harvest every summary that exists; in tolerant mode crashed (or
    # crash-stranded) sites simply have none — their trace shards, line
    # buffered and write-through, still carry everything up to the kill.
    summaries = []
    for i in range(config.n_sites):
        done = layout.done_path(run_dir, i)
        if done.exists():
            summaries.append(json.loads(done.read_text(encoding="utf-8")))
        elif not tolerate_crashes:  # pragma: no cover - guarded above
            raise _abort(procs, run_dir, f"site {i} left no summary")
    if not summaries:
        raise _abort(procs, run_dir, "no site produced a summary")
    return summaries


# -- inproc mode -------------------------------------------------------------


async def _run_inproc_async(
    config: NetRunConfig, run_dir: Path
) -> Tuple[List[Dict[str, Any]], List[Trace]]:
    """Run every site in this loop; returns the site summaries and each
    site's trace, whose in-memory records mirror its shard line for line."""
    # Reuse the site process's own builder: inproc mode exercises the
    # exact construction path the real deployment uses.
    built = [
        build_substrate(config, i, run_dir) for i in range(config.n_sites)
    ]
    try:
        addresses = {}
        for substrate, _site, _collector in built:
            port = await substrate.start()
            addresses[substrate.site_id] = (config.host, port)
        epoch = time.time() + EPOCH_LEAD["inproc"]
        for substrate, _site, _collector in built:
            substrate.configure(addresses, epoch)
        await asyncio.sleep(EPOCH_LEAD["inproc"])
        for substrate, site, _collector in built:
            substrate.start_nodes()
            SaturationWorkload(config.requests_per_site).install(
                substrate, [site]
            )
        deadline_wall = time.time() + config.deadline
        while True:
            drained = all(
                len(collector.completed) >= config.requests_per_site
                and substrate.idle()
                for substrate, _site, collector in built
            )
            if drained:
                break
            if time.time() > deadline_wall:
                stuck = [
                    substrate.site_id
                    for substrate, _site, collector in built
                    if len(collector.completed) < config.requests_per_site
                ]
                raise NetRunError(
                    f"inproc run timed out; sites not drained: {stuck}"
                )
            await asyncio.sleep(POLL)
        # Trailing acks: give delayed-ack timers one window to fire so
        # the transport counters settle deterministically enough.
        await asyncio.sleep(2 * config.ack_delay * config.unit)
    finally:
        for substrate, _site, _collector in built:
            substrate.close()
    summaries = []
    for substrate, _site, collector in built:
        summaries.append(_summary(substrate.site_id, config, substrate, collector))
        substrate.trace.close()
    return summaries, [substrate.trace for substrate, _site, _collector in built]


# -- shared verification/aggregation ------------------------------------------


def _truncate_torn_tail(path: Path) -> None:
    """Drop a torn trailing line a SIGKILL may have left in a shard.

    The shard writer is line buffered, so every completed record ends in
    a newline; a file ending without one was killed mid-write and the
    partial record is unrecoverable (and would fail strict import).
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n")
    path.write_bytes(data[: cut + 1] if cut >= 0 else b"")


def run_net(
    config: NetRunConfig,
    run_dir=None,
    spawn: str = "process",
    tolerate_crashes: bool = False,
) -> NetRunReport:
    """Execute one real-network run end to end and verify its trace.

    Raises :class:`NetRunError` if the run cannot complete (site death,
    deadline). Invariant violations do *not* raise — they are reported in
    :attr:`NetRunReport.violations` for the caller to judge.

    With ``tolerate_crashes`` (process mode) a site dying mid-run — e.g.
    SIGKILLed by a fault-injection harness — does not abort the run:
    survivors run to completion or to the deadline (whichever comes
    first; a survivor can be stuck retrying toward the dead quorum
    member until the reliable layer gives up), and whatever trace shards
    exist are merged and replayed through the monitor as usual. The
    report then covers the survivors' view of the degraded run.
    """
    if spawn not in ("process", "inproc"):
        raise NetRunError(f"unknown spawn mode {spawn!r}")
    if tolerate_crashes and spawn != "process":
        raise NetRunError("tolerate_crashes requires process mode")
    run_dir = Path(
        run_dir
        if run_dir is not None
        else tempfile.mkdtemp(prefix="repro-net-")
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    traces: Optional[List[Trace]] = None
    if spawn == "process":
        summaries = _run_process_mode(config, run_dir, tolerate_crashes)
    else:
        summaries, traces = asyncio.run(_run_inproc_async(config, run_dir))
    wall = time.time() - started

    shard_paths = [
        path
        for path in (
            layout.trace_path(run_dir, i) for i in range(config.n_sites)
        )
        if not tolerate_crashes or path.exists()
    ]
    if tolerate_crashes:
        for path in shard_paths:
            _truncate_torn_tail(path)
    merged_out = layout.merged_path(run_dir)
    merged = merge_shard_files(
        shard_paths,
        out_path=merged_out,
        meta={"spawn": spawn, "merged": True, "site": None},
        records=traces,
    )

    monitor = ProtocolMonitor(strict=False)
    violations = monitor.replay(merged.records)

    completed = sum(s["completed"] for s in summaries)
    submitted = sum(s["submitted"] for s in summaries)
    messages_sent = sum(s["messages_sent"] for s in summaries)
    by_type: Dict[str, int] = {}
    for s in summaries:
        for name, count in s["by_type"].items():
            by_type[name] = by_type.get(name, 0) + count

    quorum_name = config.resolved_quorum()
    mean_quorum = (
        make_quorum_system(quorum_name, config.n_sites).mean_quorum_size()
        if quorum_name is not None
        else None
    )
    per_cs = messages_sent / completed if completed else None
    complexity = (
        per_cs / mean_quorum if per_cs is not None and mean_quorum else None
    )

    return NetRunReport(
        algorithm=config.algorithm,
        n_sites=config.n_sites,
        spawn=spawn,
        submitted=submitted,
        completed=completed,
        messages_sent=messages_sent,
        by_type=by_type,
        messages_per_cs=per_cs,
        mean_quorum_size=mean_quorum,
        message_complexity_c=complexity,
        violations=[str(v) for v in violations],
        monitor=monitor.report(),
        run_dir=str(run_dir),
        merged_path=str(merged_out),
        wall_seconds=wall,
        site_summaries=summaries,
    )
