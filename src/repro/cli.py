"""Command-line interface.

Seven subcommands::

    repro run  --algorithm cao-singhal --sites 25 --quorum grid ...
    repro run  --trials 30 --workers 4 --cache   # seed fan-out, cached
    repro experiment E1 [--workers 4] [options]  # regenerate a table/figure
    repro trace -a cao-singhal --out run.jsonl   # monitored run, JSONL trace
    repro regress --baseline benchmarks/results --current fresh/  # bench gate
    repro explore --quorums "3,4;3,4;3,4;3;4" --crashes 1  # model checker
    repro net run --algo cao --sites 9           # real asyncio UDP processes
    repro locks run --keys 100000 --zipf 1.1     # sharded named-lock service

(Invoke as ``python -m repro.cli`` when the console script is not on
PATH.)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro import experiments, parallel
from repro.experiments.runner import RunConfig, run_mutex
from repro.metrics.tables import render_table
from repro.mutex.registry import algorithm_names
from repro.quorums.registry import make_quorum_system, quorum_system_names
from repro.ft.chaos import CHAOS_PRESETS, chaos_preset
from repro.sim.network import (
    ConstantDelay,
    ExponentialDelay,
    FaultModel,
    UniformDelay,
)
from repro.sim.transport import ReliableConfig
from repro.workload.arrivals import PoissonArrivals
from repro.workload.driver import OpenLoopWorkload, SaturationWorkload

#: Experiment id -> entry point in :mod:`repro.experiments`, resolved at
#: dispatch so that no other subcommand loads the experiment modules.
EXPERIMENTS: Dict[str, str] = {
    "E1": "run_table1",
    "E2": "run_light_load",
    "E3": "run_heavy_load",
    "E4": "run_delay",
    "E5": "run_throughput",
    "E6": "run_quorum_scaling",
    "E7a": "run_availability",
    "E7b": "run_recovery",
    "E8": "run_load_sweep",
    "E9": "run_ablation",
    "E10": "run_load_balance",
    "E11": "run_churn",
    "E12": "run_queueing",
    "E13": "run_chaos_resilience",
    "E14": "run_lock_sweep",
    "E15": "run_lock_skew",
    "E16": "run_lock_chaos",
}


def _delay_model(spec: str):
    """Parse ``constant[:T]``, ``uniform[:lo:hi]``, ``exp[:mean]``."""
    parts = spec.split(":")
    kind = parts[0]
    args = [float(p) for p in parts[1:]]
    if kind == "constant":
        return ConstantDelay(*(args or [1.0]))
    if kind == "uniform":
        return UniformDelay(*(args or [0.5, 1.5]))
    if kind in ("exp", "exponential"):
        return ExponentialDelay(*(args or [1.0]))
    raise argparse.ArgumentTypeError(f"unknown delay model {spec!r}")


#: Friendly shorthands accepted wherever an algorithm name is typed.
_ALGO_ALIASES = {"cao": "cao-singhal"}


def _algorithm(name: str) -> str:
    """Resolve an algorithm name or alias, argparse-friendly."""
    name = _ALGO_ALIASES.get(name, name)
    if name not in algorithm_names():
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {name!r}; known: {', '.join(algorithm_names())}"
        )
    return name


def _add_scenario_args(run_p: argparse.ArgumentParser) -> None:
    """Scenario flags shared by the ``run`` and ``trace`` subcommands."""
    run_p.add_argument(
        "--algorithm", "-a", default="cao-singhal", choices=algorithm_names()
    )
    run_p.add_argument("--sites", "-n", type=int, default=9)
    run_p.add_argument(
        "--quorum", "-q", default=None, choices=quorum_system_names()
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--delay", type=_delay_model, default=None,
        help="constant[:T] | uniform[:lo:hi] | exp[:mean] (default uniform)",
    )
    run_p.add_argument("--cs-duration", type=float, default=0.1)
    load = run_p.add_mutually_exclusive_group()
    load.add_argument(
        "--saturate", type=int, metavar="R",
        help="heavy load: R back-to-back requests per site",
    )
    load.add_argument(
        "--poisson", type=float, metavar="RATE",
        help="open loop: Poisson arrivals at RATE per site",
    )
    run_p.add_argument(
        "--horizon", type=float, default=500.0,
        help="arrival horizon for --poisson",
    )


#: No registry algorithm has failure handling to survive a crash, so
#: ``run`` and ``trace`` offer only the presets without crash cycles.
_CRASH_FREE_PRESETS = [n for n, p in CHAOS_PRESETS.items() if not p["crashes"]]


def _add_chaos_args(
    run_p: argparse.ArgumentParser, presets=_CRASH_FREE_PRESETS
) -> None:
    """Fault/chaos flags shared by ``run``, ``trace`` and ``locks run``."""
    _add_fault_args(run_p)
    run_p.add_argument(
        "--fault-plan", default=None, choices=sorted(presets),
        help="seeded chaos schedule to overlay on the run",
    )
    run_p.add_argument(
        "--reliable", action=argparse.BooleanOptionalAction, default=None,
        help="reliable-channel layer (default: on iff any fault flag is set)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Delay-optimal quorum-based mutual exclusion "
        "(Cao & Singhal, ICDCS 1998): simulator and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation and print its summary")
    _add_scenario_args(run_p)
    run_p.add_argument(
        "--trials", type=int, default=1, metavar="K",
        help="replicate over seeds seed..seed+K-1 through the trial engine",
    )
    run_p.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="worker processes for --trials (default: $REPRO_WORKERS or "
        "CPU count; 1 = in-process)",
    )
    run_p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="reuse/record trial results in the on-disk run cache",
    )
    run_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/trials)",
    )
    _add_chaos_args(run_p)
    run_p.add_argument(
        "--profile", action="store_true",
        help="time every event callback and print the per-label "
        "breakdown (single trial only)",
    )

    trace_p = sub.add_parser(
        "trace",
        help="run one simulation under the protocol monitor and export "
        "its trace as JSONL",
    )
    _add_scenario_args(trace_p)
    _add_chaos_args(trace_p)
    trace_p.add_argument(
        "--out", "-o", default="trace.jsonl", metavar="PATH",
        help="JSONL output path (schema repro-trace/1)",
    )
    trace_p.add_argument(
        "--trace-limit", type=int, default=None, metavar="N",
        help="cap the number of records kept in memory (default unbounded)",
    )

    regress_p = sub.add_parser(
        "regress",
        help="diff fresh BENCH_*.json results against committed baselines "
        "and fail on regressions",
    )
    regress_p.add_argument(
        "--baseline", required=True, metavar="DIR",
        help="directory holding the baseline BENCH_*.json files",
    )
    regress_p.add_argument(
        "--current", required=True, metavar="DIR",
        help="directory holding the freshly generated BENCH_*.json files",
    )
    regress_p.add_argument(
        "--threshold-pct", type=float, default=None, metavar="PCT",
        help="allowed drift for thresholded metrics (default 25)",
    )
    regress_p.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the markdown report to PATH",
    )

    explore_p = sub.add_parser(
        "explore",
        help="model-check a configuration: exhaustive (DPOR-reduced) "
        "interleaving search with optional fault actions",
    )
    source = explore_p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--quorums", metavar="TABLE",
        help="explicit per-site quorum table, semicolon-separated comma "
        'lists, e.g. "3,4;3,4;3,4;3;4"',
    )
    source.add_argument(
        "--quorum", "-q", choices=quorum_system_names(),
        help="registered quorum construction, instantiated for --sites",
    )
    explore_p.add_argument(
        "--sites", "-n", type=int, default=4,
        help="site count for --quorum (ignored with --quorums)",
    )
    explore_p.add_argument(
        "--requests", default="1", metavar="R|R0,R1,...",
        help="CS requests per site: one count for every site, or a "
        "per-site comma list",
    )
    explore_p.add_argument(
        "--transfer", action=argparse.BooleanOptionalAction, default=True,
        help="the paper's delay-optimal permission forwarding",
    )
    explore_p.add_argument(
        "--max-states", type=int, default=100_000, metavar="N",
        help="exact state budget: the search stops (incomplete, exit 3) "
        "after expanding N states",
    )
    explore_p.add_argument(
        "--depth-limit", type=int, default=None, metavar="D",
        help="cap schedule length (marks the search incomplete)",
    )
    explore_p.add_argument(
        "--dpor", action=argparse.BooleanOptionalAction, default=True,
        help="sleep-set partial-order reduction (same verdicts, fewer "
        "transitions)",
    )
    explore_p.add_argument(
        "--crashes", type=int, default=0, metavar="K",
        help="fault budget: crash/detect cycles per schedule",
    )
    explore_p.add_argument(
        "--recoveries", type=int, default=0, metavar="K",
        help="fault budget: how many crashes later recover and rejoin",
    )
    explore_p.add_argument(
        "--crash-sites", default=None, metavar="I,J,...",
        help="restrict which sites may crash (default: any)",
    )
    explore_p.add_argument(
        "--cuts", type=int, default=0, metavar="K",
        help="fault budget: link cut/heal cycles per schedule",
    )
    explore_p.add_argument(
        "--cut-links", default=None, metavar="A-B,...",
        help="links the cut budget may sever, e.g. 0-2,1-3",
    )
    explore_p.add_argument(
        "--out", "-o", default=None, metavar="PATH",
        help="on a counterexample, write the shrunk schedule as "
        "monitor-replayable repro-trace/1 JSONL ('-' for stdout)",
    )

    net_p = sub.add_parser(
        "net",
        help="real-network execution: the same sites on asyncio UDP sockets",
    )
    net_sub = net_p.add_subparsers(dest="net_command", required=True)
    net_run = net_sub.add_parser(
        "run",
        help="run one site process per site on localhost UDP, merge the "
        "per-site traces, and verify them with the protocol monitor",
    )
    net_run.add_argument(
        "--algo", "--algorithm", "-a", dest="algorithm", type=_algorithm,
        default="cao-singhal",
        help=f"algorithm name ({', '.join(algorithm_names())}; "
        "'cao' is shorthand for cao-singhal)",
    )
    net_run.add_argument("--sites", "-n", type=int, default=5)
    net_run.add_argument(
        "--quorum", "-q", default=None, choices=quorum_system_names(),
        help="quorum construction for quorum algorithms (default grid)",
    )
    net_run.add_argument("--seed", type=int, default=0)
    net_run.add_argument(
        "--requests", "-r", type=int, default=3, metavar="R",
        help="saturation workload: R back-to-back requests per site",
    )
    net_run.add_argument("--cs-duration", type=float, default=0.05)
    net_run.add_argument(
        "--unit", type=float, default=0.02, metavar="SECS",
        help="wall-clock seconds per simulation time unit",
    )
    net_run.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-datagram drop probability injected below the reliable "
        "layer",
    )
    net_run.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-datagram duplication probability",
    )
    net_run.add_argument("--chaos-seed", type=int, default=0)
    net_run.add_argument(
        "--reliable", action=argparse.BooleanOptionalAction, default=True,
        help="reliable-channel layer (UDP guarantees neither delivery "
        "nor order, so disabling it is only safe on a quiet localhost)",
    )
    net_run.add_argument(
        "--spawn", choices=("process", "inproc"), default="process",
        help="one OS process per site, or every site in this process "
        "(own sockets either way)",
    )
    net_run.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="run directory for traces and rendezvous files "
        "(default: a fresh temp dir)",
    )
    net_run.add_argument(
        "--deadline", type=float, default=60.0, metavar="SECS",
        help="hard wall-clock cap on the whole run",
    )
    net_run.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    locks_p = sub.add_parser(
        "locks",
        help="sharded multi-resource lock service over the mutex kernel",
    )
    locks_sub = locks_p.add_subparsers(dest="locks_command", required=True)
    locks_run = locks_sub.add_parser(
        "run",
        help="run a seeded lock-service workload and print its summary",
    )
    locks_run.add_argument(
        "--algo", "--algorithm", "-a", dest="algorithm", type=_algorithm,
        default="cao-singhal",
        help=f"shard mutex algorithm ({', '.join(algorithm_names())}; "
        "'cao' is shorthand for cao-singhal)",
    )
    locks_run.add_argument(
        "--shards", "-k", type=int, default=4,
        help="independent mutex instances the keys hash onto",
    )
    locks_run.add_argument(
        "--sites", "-n", type=int, default=9, help="protocol sites per shard"
    )
    locks_run.add_argument(
        "--quorum", "-q", default=None, choices=quorum_system_names(),
        help="quorum construction for quorum algorithms (default grid)",
    )
    locks_run.add_argument("--seed", type=int, default=0)
    locks_run.add_argument(
        "--keys", type=int, default=1_000, metavar="M",
        help="named-lock name space: keys lock-0..lock-(M-1)",
    )
    locks_run.add_argument(
        "--clients", type=int, default=16, metavar="C",
        help="open-loop client population",
    )
    locks_run.add_argument(
        "--requests", "-r", type=int, default=500, metavar="R",
        help="total acquires to submit",
    )
    locks_run.add_argument(
        "--rate", type=float, default=2.0, metavar="RATE",
        help="total Poisson acquire rate across the population",
    )
    locks_run.add_argument(
        "--zipf", type=float, default=0.0, metavar="S",
        help="Zipf key-popularity exponent (0 = uniform)",
    )
    locks_run.add_argument("--hold", type=float, default=0.05, metavar="D",
                           help="lock hold duration")
    locks_run.add_argument(
        "--routing", choices=("affinity", "client"), default="affinity",
        help="front-end placement: key-affinity (lease-friendly) or "
        "client-pinned",
    )
    locks_run.add_argument(
        "--batch-max", type=int, default=8, metavar="B",
        help="max acquires served under one shard authorization",
    )
    locks_run.add_argument(
        "--lease", action=argparse.BooleanOptionalAction, default=True,
        help="retain the shard CS after a batch drains (hot-key cache)",
    )
    locks_run.add_argument(
        "--lease-window", type=float, default=2.0, metavar="W",
        help="retention window in time units (with --lease)",
    )
    _add_chaos_args(locks_run, CHAOS_PRESETS)
    locks_run.add_argument(
        "--crash", type=int, default=0, metavar="N",
        help="seeded crash/rejoin cycles per shard (distinct sites)",
    )
    locks_run.add_argument(
        "--crash-downtime", type=float, default=30.0, metavar="D",
        help="time until a crashed site rejoins (0 = permanent)",
    )
    locks_run.add_argument(
        "--detect", type=float, default=2.0, metavar="D",
        help="failure-detection latency for crash cycles",
    )
    locks_run.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    exp_p = sub.add_parser(
        "experiment", help="regenerate a paper table/figure (or 'all')"
    )
    exp_p.add_argument(
        "id", choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id from DESIGN.md",
    )
    exp_p.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="worker processes for engine-backed experiments "
        "(sets REPRO_WORKERS for the run)",
    )
    fmt = exp_p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a table"
    )
    fmt.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    exp_p.add_argument(
        "--loss", default=None, metavar="R[,R...]",
        help="E13 only: comma-separated loss rates to sweep",
    )
    exp_p.add_argument("--dup", type=float, default=None, help="E13 only")
    exp_p.add_argument("--reorder", type=float, default=None, help="E13 only")
    exp_p.add_argument("--chaos-seed", type=int, default=None, help="E13 only")
    return parser


def _add_fault_args(run_p: argparse.ArgumentParser) -> None:
    run_p.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-message drop probability (adversarial network)",
    )
    run_p.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-message duplication probability",
    )
    run_p.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="per-message reordering probability (breaks channel FIFO)",
    )
    run_p.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the fault RNG stream and --fault-plan schedule",
    )


def _fault_setup(args: argparse.Namespace):
    """(fault_model, reliable_config, chaos) from the run subcommand flags."""
    fault_model = None
    if args.loss or args.dup or args.reorder:
        fault_model = FaultModel(
            loss=args.loss,
            duplicate=args.dup,
            reorder=args.reorder,
            chaos_seed=args.chaos_seed,
        )
    chaos = (
        chaos_preset(args.fault_plan, seed=args.chaos_seed)
        if args.fault_plan
        else None
    )
    reliable = args.reliable
    if reliable is None:
        reliable = fault_model is not None or chaos is not None
    return fault_model, (ReliableConfig() if reliable else None), chaos


def _scenario_config(args: argparse.Namespace) -> RunConfig:
    """Build the :class:`RunConfig` shared by ``run`` and ``trace``."""
    if args.saturate is not None:
        workload = SaturationWorkload(args.saturate)
    elif args.poisson is not None:
        workload = OpenLoopWorkload(PoissonArrivals(args.poisson), args.horizon)
    else:
        workload = SaturationWorkload(20)
    fault_model, reliable, chaos = _fault_setup(args)
    return RunConfig(
        algorithm=args.algorithm,
        n_sites=args.sites,
        quorum=args.quorum,
        seed=args.seed,
        delay_model=args.delay,
        cs_duration=args.cs_duration,
        workload=workload,
        fault_model=fault_model,
        reliable=reliable,
        chaos=chaos,
    )


def cmd_run(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    if args.trials < 1:
        raise SystemExit("--trials must be >= 1")
    if args.profile:
        if args.trials != 1:
            raise SystemExit("--profile works on a single trial")
        from repro.obs.profile import profiled_run

        result, profiler = profiled_run(config)
        print(result.summary.describe())
        print(profiler.report())
        return 0
    cache = parallel.RunCache(args.cache_dir) if args.cache else None
    seeds = range(args.seed, args.seed + args.trials)
    summaries = parallel.TrialPool(workers=args.workers, cache=cache).run_seeds(
        config, seeds
    )
    if args.trials == 1:
        print(summaries[0].describe())
    else:
        print(
            render_table(
                ["seed", "msgs/CS", "sync delay (T)", "response (T)",
                 "throughput"],
                [
                    [s.seed, s.messages_per_cs, s.sync_delay_in_t,
                     s.response_time_in_t, s.throughput]
                    for s in summaries
                ],
                title=f"{config.algorithm} x {args.trials} trials "
                f"(N={config.n_sites})",
            )
        )
        delays = experiments.Replication(
            metric="sync delay (T)",
            samples=[s.sync_delay_in_t for s in summaries],
        )
        print(f"  {delays}")
    if cache is not None:
        print(f"  {cache.stats}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run under the protocol monitor (collect mode) and export JSONL.

    Exit status 0 for a clean run; 1 when the monitor collected
    violations or the run itself failed verification — the trace is
    exported either way, so CI can upload exactly what went wrong.
    """
    from repro.errors import ReproError
    from repro.obs.export import export_jsonl
    from repro.obs.monitor import MonitorTrace, ProtocolMonitor

    config = _scenario_config(args)
    monitor = ProtocolMonitor(strict=False)
    if args.trace_limit is not None:
        monitor.trace = MonitorTrace(monitor, capacity=args.trace_limit)
    config.trace = monitor.trace
    run_error: Optional[ReproError] = None
    mean_delay_t = None
    try:
        result = run_mutex(config)
        mean_delay_t = result.sim.network.mean_delay
        print(result.summary.describe())
    except ReproError as exc:
        run_error = exc
        print(f"run failed: {exc}", file=sys.stderr)
    report = monitor.report(mean_delay_t=mean_delay_t)
    meta = {
        "algorithm": config.algorithm,
        "n_sites": config.n_sites,
        "quorum": config.resolved_quorum(),
        "seed": config.seed,
        "monitor": report,
    }
    count = export_jsonl(monitor.trace, args.out, meta=meta)
    print(f"exported {count} trace records -> {args.out}")
    if report["handoff_samples"]:
        mean_t = report.get("handoff_mean_in_t")
        in_t = f" ({mean_t:.2f} T)" if mean_t is not None else ""
        print(
            f"handoff sync delay: {report['handoff_mean']:.3f}{in_t} over "
            f"{report['handoff_samples']} transfer-gated entries"
        )
    if monitor.violations:
        print(f"{len(monitor.violations)} invariant violation(s):")
        for violation in monitor.violations[:10]:
            print(f"  {violation}")
        return 1
    print("monitor: all invariants held")
    return 1 if run_error is not None else 0


def cmd_regress(args: argparse.Namespace) -> int:
    """Gate on benchmark regressions; markdown report to stdout/--report."""
    from repro.obs.regress import DEFAULT_THRESHOLD_PCT, check

    threshold = (
        args.threshold_pct
        if args.threshold_pct is not None
        else DEFAULT_THRESHOLD_PCT
    )
    report = check(args.baseline, args.current, threshold_pct=threshold)
    markdown = report.to_markdown()
    print(markdown)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(markdown + "\n")
    if not report.results:
        print("no BENCH_*.json found on either side", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


def _explore_setup(args: argparse.Namespace):
    """(quorums, requests, fault_budget) from the explore flags."""
    from repro.ft.chaos import FaultBudget

    if args.quorums:
        quorums = [
            {int(s) for s in part.split(",") if s.strip()}
            for part in args.quorums.split(";")
        ]
    else:
        qs = make_quorum_system(args.quorum, args.sites)
        quorums = [set(qs.quorum_for(i)) for i in range(args.sites)]
    n = len(quorums)
    if "," in args.requests:
        requests = [int(x) for x in args.requests.split(",")]
        if len(requests) != n:
            raise SystemExit(
                f"--requests lists {len(requests)} sites, topology has {n}"
            )
    else:
        requests = [int(args.requests)] * n
    budget = None
    if args.crashes or args.cuts:
        budget = FaultBudget(
            crashes=args.crashes,
            recoveries=args.recoveries,
            cuts=args.cuts,
            cut_links=tuple(
                tuple(sorted(int(x) for x in link.split("-")))
                for link in args.cut_links.split(",")
            )
            if args.cut_links
            else (),
            crash_sites=tuple(
                int(x) for x in args.crash_sites.split(",")
            )
            if args.crash_sites
            else None,
        )
    return quorums, requests, budget


def cmd_explore(args: argparse.Namespace) -> int:
    """Model-check one configuration.

    Exit status 0 for a fully explored clean space, 3 when the state or
    depth budget ran out with no violation found, 1 on a counterexample
    (written to ``--out`` when given, shrunk and monitor-replayable).
    """
    import repro.verify.explore as ex

    quorums, requests, budget = _explore_setup(args)
    try:
        result = ex.explore(
            quorums,
            requests,
            args.transfer,
            max_states=args.max_states,
            keep_paths=True,
            dpor=args.dpor,
            fault_budget=budget,
            depth_limit=args.depth_limit,
        )
    except ex.CounterexampleFound as cex:
        print(f"counterexample: {type(cex.cause).__name__}: {cex.cause}")
        if args.out:
            target = sys.stdout if args.out == "-" else args.out
            count = ex.export_counterexample(
                target,
                quorums,
                cex.path,
                cex.cause,
                requests,
                args.transfer,
                fault_budget=budget,
            )
            if args.out != "-":
                print(f"exported {count} trace records -> {args.out}")
        else:
            print(f"schedule ({len(cex.path)} actions, unshrunk):")
            for action in cex.path:
                print(f"  {ex.encode_action(action)}")
        return 1
    status = "complete" if result.complete else "budget exhausted"
    print(
        f"explored {result.states_explored} states, "
        f"{result.transitions} transitions (depth <= {result.max_depth}, "
        f"{result.sleep_pruned} sleep-pruned, {result.dedup_hits} dedup "
        f"hits): {status}, no violation"
    )
    print(f"terminal states: {result.terminal_states}")
    return 0 if result.complete else 3


def cmd_net(args: argparse.Namespace) -> int:
    """``repro net run``: a verified real-network execution."""
    # Imported here: the net package pulls in asyncio machinery no other
    # subcommand needs.
    from repro.net import NetRunConfig, run_net

    config = NetRunConfig(
        algorithm=args.algorithm,
        n_sites=args.sites,
        quorum=args.quorum,
        seed=args.seed,
        requests_per_site=args.requests,
        cs_duration=args.cs_duration,
        unit=args.unit,
        reliable=args.reliable,
        loss=args.loss,
        duplicate=args.dup,
        chaos_seed=args.chaos_seed,
        deadline=args.deadline,
    )
    report = run_net(config, run_dir=args.run_dir, spawn=args.spawn)
    if args.json:
        import dataclasses as _dc
        import json as _json

        print(_json.dumps(_dc.asdict(report), indent=2, sort_keys=True))
    else:
        c = report.message_complexity_c
        print(
            f"{report.algorithm} x {report.n_sites} sites "
            f"({report.spawn} spawn): {report.completed}/{report.submitted} "
            f"CS completions in {report.wall_seconds:.2f}s wall"
        )
        print(
            f"  protocol messages: {report.messages_sent} "
            f"({report.messages_per_cs:.2f}/CS"
            + (f", c = {c:.2f} per quorum member)" if c is not None else ")")
        )
        print(f"  merged trace: {report.merged_path}")
        if report.violations:
            print(f"  VIOLATIONS ({len(report.violations)}):")
            for v in report.violations:
                print(f"    {v}")
        else:
            print(
                "  monitor verdict: clean (mutual exclusion, single-grant "
                "arbiters, transfer-honoured, quorum consistency)"
            )
    return 0 if report.clean else 1


def cmd_locks(args: argparse.Namespace) -> int:
    """``repro locks run``: one verified lock-service simulation."""
    # Imported here: no other subcommand needs the lock-service layer.
    from repro.locks import LockRunConfig, run_lock_service

    fault_model, _, chaos = _fault_setup(args)
    config = LockRunConfig(
        algorithm=args.algorithm,
        shards=args.shards,
        n_sites=args.sites,
        quorum=args.quorum,
        seed=args.seed,
        n_keys=args.keys,
        n_clients=args.clients,
        n_requests=args.requests,
        arrival_rate=args.rate,
        key_skew=args.zipf,
        hold_duration=args.hold,
        routing=args.routing,
        batch_max=args.batch_max,
        lease=args.lease,
        lease_window=args.lease_window,
        fault_model=fault_model,
        reliable=args.reliable,
        chaos=chaos,
        crashes=args.crash,
        crash_downtime=args.crash_downtime,
        detection_delay=args.detect,
    )
    summary = run_lock_service(config).summary
    if args.json:
        import json as _json

        print(_json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(summary.describe())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
    env_workers = os.environ.get(parallel.WORKERS_ENV)
    if args.workers is not None:
        os.environ[parallel.WORKERS_ENV] = str(args.workers)
    chaos_flags = {
        "loss_rates": (
            tuple(float(x) for x in args.loss.split(","))
            if args.loss is not None
            else None
        ),
        "duplicate": args.dup,
        "reorder": args.reorder,
        "chaos_seed": args.chaos_seed,
    }
    chaos_flags = {k: v for k, v in chaos_flags.items() if v is not None}
    try:
        for exp_id in ids:
            kwargs = chaos_flags if exp_id == "E13" else {}
            if chaos_flags and exp_id != "E13" and args.id != "all":
                print(
                    f"warning: --loss/--dup/--reorder/--chaos-seed only "
                    f"apply to E13, ignored for {exp_id}",
                    file=sys.stderr,
                )
            report = getattr(experiments, EXPERIMENTS[exp_id])(**kwargs)
            if args.csv:
                print(report.to_csv())
            elif args.json:
                print(report.to_json())
            else:
                print(report.render())
    finally:
        if args.workers is not None:
            if env_workers is None:
                os.environ.pop(parallel.WORKERS_ENV, None)
            else:
                os.environ[parallel.WORKERS_ENV] = env_workers
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "regress":
        return cmd_regress(args)
    if args.command == "explore":
        return cmd_explore(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "net":
        return cmd_net(args)
    if args.command == "locks":
        return cmd_locks(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
