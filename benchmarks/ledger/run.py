#!/usr/bin/env python3
"""The perf ledger: one benchmark for the mutex, the lock service and the
UDP substrate, end to end and layer by layer.

Two ways in, one measuring path:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one
  workload, the form the benchmark driver calls. The last line of
  standard output is one JSON object ``{correct, attempted, failed,
  metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
  metrics with ``--trace 1``.
* ``run.py [--seed N] [--seconds S | --reps N] [--traced] [--out FILE]`` — every
  workload, every metric printed by name with its unit, and the full
  ledger (per-rep samples included) written to ``--out``.

Run discipline: this process only orchestrates. Every rep runs in a
fresh child interpreter under ``CHILD_ENV``, one at a time, so
``peak_rss_mb`` is per rep and no state leaks between reps. Per
workload: one discarded warm-up rep, then timed reps until ``--seconds``
of wall time are spent (at least ``MIN_REPS``), or exactly ``--reps``.
Times and rates quote the best rep, wait percentiles the pooled samples
of the faster half of the reps (see ``_end_to_end``). Exit status is
non-zero on any correctness breach.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
RESULTS_DIR = LEDGER_DIR / "results"

import catalog  # noqa: E402  (sibling modules; the script's directory is on sys.path)
import derive  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import BY_NAME, WORKLOADS, run_rep  # noqa: E402

MIN_REPS = 4
CHILD_TIMEOUT_S = 150
#: What every child runs under, whatever launched the parent. The two
#: glibc settings pin the allocator's mmap and trim thresholds, which
#: otherwise adapt at run time: asyncio allocates a 256 KiB buffer per
#: datagram received, and whether that buffer is served from the heap or
#: by a fresh mmap (page faults included) then hinges on the heap layout
#: the process happened to start with. A relative ``PYTHONPATH`` entry
#: was enough to flip ``mutex_udp_inproc`` between 590 and 460 ops/s.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(16 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(128 * 1024 * 1024),
}
#: The paper's bounds, gated on ``mutex_sim_heavy`` (Section 5).
COMPLEXITY_C_RANGE = (3.0, 6.0)
SYNC_DELAY_T_BELOW = 2.0


# -- child side ----------------------------------------------------------------


def _child_rep(name: str, seed: int, traced: bool, trace_out: Optional[str]) -> int:
    """Run one rep in this (fresh) process and print its facts as JSON."""
    sys.path.insert(0, str(SRC_DIR))
    rec = None
    missing: List[str] = []
    if traced:
        rec = spans.Recorder(*spans.calibrate())
        missing = spans.install(rec)
    facts = run_rep(name, seed, rec)
    if rec is not None:
        window_calls = rec.window_calls()
        tables = {
            "window_s": rec.window_seconds(),
            "window_tracer_s": sum(window_calls.values())
            * (rec.inside_s + rec.outside_s),
            "wrapper_cost_us": [1e6 * rec.inside_s, 1e6 * rec.outside_s],
            "window_cpu_s": rec.window_close.cpu - rec.window_open.cpu,
            "window_self": rec.window_self(),
            "window_calls": window_calls,
            "rep_self": dict(rec.self_s),
            "rep_total": dict(rec.total_s),
            "rep_calls": dict(rec.calls),
            "missing_targets": missing,
        }
        facts["spans"] = tables
        if trace_out:
            phases = {k: facts[k] for k in ("setup_s", "run_s", "verify_s")}
            Path(trace_out).write_text(json.dumps({
                "workload": name,
                "seed": seed,
                "phases": phases,
                "sample_every": spans.SAMPLE_EVERY,
                "layer_self_share": spans.layer_shares(
                    tables["window_self"], tables["window_s"],
                    tables["window_tracer_s"],
                ),
                **tables,
                "spans": rec.sampled_spans(facts["origin"]),
            }) + "\n", encoding="utf-8")
    del facts["origin"]
    print(json.dumps(facts))
    return 0


def _child_rungs() -> int:
    sys.path.insert(0, str(SRC_DIR))
    import rungs

    print(json.dumps(rungs.run_all(LEDGER_DIR / ".work")))
    return 0


# -- parent side ---------------------------------------------------------------


class BenchmarkError(RuntimeError):
    """A child could not produce a result at all."""


def _spawn(args: List[str]) -> Dict[str, Any]:
    """Run this script as a child and parse the JSON on its last line."""
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONPATH", None)  # the child finds src/ by itself
    # Let the warm-up rep leave bytecode behind, so that set-up time is
    # an import, not a compile, whatever the caller's shell exports.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, str(Path(__file__).resolve())] + args
    try:
        done = subprocess.run(
            command, env=env, cwd=str(REPO_ROOT), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the child.
        raise BenchmarkError(
            f"{' '.join(args)}: no result after {CHILD_TIMEOUT_S} s"
        ) from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(args)}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _rep(name: str, seed: int, traced: bool = False, trace_out: Optional[Path] = None):
    args = ["--child", name, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    return _spawn(args)


def _timed_reps(name: str, seed: int, seconds: float, reps: Optional[int], **kw):
    """Reps until ``seconds`` are spent (at least MIN_REPS), or ``reps``."""
    out = []
    started = time.perf_counter()
    while True:
        if reps is not None:
            if len(out) >= reps:
                break
        elif len(out) >= MIN_REPS and time.perf_counter() - started >= seconds:
            break
        out.append(_rep(name, seed, **kw))
    return out


def _end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload from its timed reps.

    Every row carries ``value`` (the figure quoted), ``lo``/``hi`` (the
    range of the per-rep samples the value rests on) and the median and
    count of all per-rep samples.

    * Times and rates quote the *best* rep (ROADMAP item 1's min-of-N),
      and rest on the better half of the reps. The reference box suffers
      bursts that slow everything by half for ten seconds at a time; a
      burst that covers most of a run drags the median with it but
      leaves the best rep alone, which measured twice as steady from run
      to run. Noise here only ever adds time.
    * Wait percentiles are nearest-rank over the pooled samples of the
      *faster half* of the reps (ranked by run-phase time), so reps hit
      by such a burst do not own the tail. Simulated reps are identical,
      so there the pooling changes nothing.
    * Ratios are pooled sums; memory is the median between its quartiles.
    """
    half = (len(reps) + 1) // 2

    def row(value: float, basis: List[float], samples: List[float]) -> Dict[str, Any]:
        return {"value": value, "lo": min(basis), "hi": max(basis),
                "median": statistics.median(samples), "n": len(samples)}

    def best(samples: List[float], higher_is_better: bool = False) -> Dict[str, Any]:
        better_half = sorted(samples, reverse=higher_is_better)[:half]
        return row(better_half[0], better_half, samples)

    faster_half = sorted(range(len(reps)), key=lambda i: reps[i]["run_s"])[:half]
    ordered_waits = [sorted(r["waits"]) for r in reps]

    def pooled(q: float) -> Dict[str, Any]:
        p = stats.pooled_percentile([ordered_waits[i] for i in faster_half], q)
        per_rep = [stats.percentile(waits, q) for waits in ordered_waits]
        out = row(p["value"], [per_rep[i] for i in faster_half], per_rep)
        out.update(pooled_n=p["n"], beyond=p["beyond"], supported=p["supported"])
        return out

    ops = sum(r["ops"] for r in reps)
    submitted = sum(r["submitted"] for r in reps)
    msgs_per_op = sum(r["protocol_msgs"] for r in reps) / ops
    failed_share = (submitted - sum(r["completed"] for r in reps)) / submitted
    rss = [r["peak_rss_mb"] for r in reps]
    rss_q1, rss_median, rss_q3 = stats.quartiles(rss)
    return {
        "setup_s": best([r["setup_s"] for r in reps]),
        "ops_per_s": best([r["ops"] / r["run_s"] for r in reps], True),
        "verify_s": best([r["verify_s"] for r in reps]),
        "wait_p50": pooled(0.50),
        "wait_p99": pooled(0.99),
        "msgs_per_op": row(
            msgs_per_op, [msgs_per_op], [r["protocol_msgs"] / r["ops"] for r in reps]
        ),
        "peak_rss_mb": row(rss_median, [rss_q1, rss_q3], rss),
        "failed_op_share": row(
            failed_share, [failed_share],
            [(r["submitted"] - r["completed"]) / r["submitted"] for r in reps],
        ),
    }


def _breaches(name: str, reps: List[Dict[str, Any]], e2e: Dict[str, Any]) -> List[str]:
    """Every correctness-gate breach over all reps of one workload."""
    workload = BY_NAME[name]
    found = [f"rep {i}: {b}" for i, r in enumerate(reps) for b in r["breaches"]]
    if workload.deterministic:
        digests = sorted({r["digest"] for r in reps})
        if len(digests) > 1:
            found.append(
                f"nondeterminism: {len(digests)} distinct digests over "
                f"{len(reps)} reps of one seed ({', '.join(digests)})"
            )
    if not e2e["wait_p99"]["supported"]:
        found.append(
            f"wait_p99 has {e2e['wait_p99']['beyond']} samples beyond it "
            f"(< {stats.MIN_BEYOND}): lengthen the run"
        )
    if name == "mutex_sim_heavy":
        for i, r in enumerate(reps):
            row = derive.from_counts(r)
            c, sync = row["core.complexity_c"], row["core.sync_delay_T"]
            if not COMPLEXITY_C_RANGE[0] <= c <= COMPLEXITY_C_RANGE[1]:
                found.append(f"rep {i}: complexity c = {c:.3f} outside [3, 6]")
            if not sync < SYNC_DELAY_T_BELOW:
                found.append(f"rep {i}: sync delay {sync:.3f} T is not below 2 T")
    return found


def measure(
    name: str,
    seed: int,
    seconds: float,
    reps: Optional[int] = None,
    traced: bool = False,
    traced_reps: Optional[int] = None,
    rungs: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Measure one workload; see the module docstring for the discipline.

    Untraced reps give the end-to-end metrics. With ``traced``, further
    reps run under ``spans.py`` and give the per-layer metrics; the
    difference in ``ops_per_s`` between the two is the tracing overhead.
    """
    warmup = _rep(name, seed)
    timed = _timed_reps(name, seed, seconds, reps)
    e2e = _end_to_end(timed)
    all_reps = [warmup] + timed
    cell: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "reps": len(timed),
        "end_to_end": e2e,
        "samples": {
            "setup_s": [r["setup_s"] for r in timed],
            "run_s": [r["run_s"] for r in timed],
            "verify_s": [r["verify_s"] for r in timed],
            "ops_per_s": [r["ops"] / r["run_s"] for r in timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            "ops": [r["ops"] for r in timed],
            "protocol_msgs": [r["protocol_msgs"] for r in timed],
            "digest": [r["digest"] for r in timed],
        },
        "attempted": sum(r["submitted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
    }
    if traced:
        RESULTS_DIR.mkdir(exist_ok=True)
        trace_file = RESULTS_DIR / f"trace_{name}.json"
        traced_runs = _timed_reps(
            name, seed, seconds, traced_reps, traced=True, trace_out=trace_file
        )
        all_reps += traced_runs
        rows = [
            {**derive.from_counts(r), **derive.from_spans(r, r["spans"])}
            for r in traced_runs
        ]
        per_layer = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        untraced_rate = e2e["ops_per_s"]["value"]
        traced_rate = max(r["ops"] / r["run_s"] for r in traced_runs)
        per_layer["trace_overhead_share"] = 1.0 - traced_rate / untraced_rate
        per_layer["sim.events_per_s"] = max(r["events"] / r["run_s"] for r in timed)
        per_layer.update(rungs if rungs is not None else _spawn(["--child-rungs"]))
        cell["per_layer"] = per_layer
        cell["traced_reps"] = len(traced_runs)
        cell["trace_file"] = str(trace_file.relative_to(REPO_ROOT))
        cell["self_share_sum"] = sum(
            per_layer[f"{layer}.self_share"] for layer in spans.RUN_LAYERS
        )
        cell["missing_span_targets"] = traced_runs[0]["spans"]["missing_targets"]
    cell["breaches"] = _breaches(name, all_reps, e2e)
    if traced and abs(cell["self_share_sum"] - 1.0) > 0.02:
        cell["breaches"].append(
            f"per-layer self shares sum to {cell['self_share_sum']:.4f}, not 1 +/- 0.02"
        )
    cell["correct"] = not cell["breaches"]
    return cell


# -- output ----------------------------------------------------------------------


def _print_cell(cell: Dict[str, Any]) -> None:
    units = {m.name: m.unit for m in catalog.END_TO_END + (catalog.FAILED_OP_SHARE,)}
    name = cell["workload"]
    print(f"== {name}  seed={cell['seed']}  reps={cell['reps']}  "
          f"attempted={cell['attempted']}  failed={cell['failed']}  "
          f"correct={cell['correct']}")
    for metric, row in cell["end_to_end"].items():
        extra = (f"  [rests on {row['lo']:.6g} .. {row['hi']:.6g}; "
                 f"median of {row['n']} reps {row['median']:.6g}]")
        print(f"  {metric:<28} {row['value']:>14.6g} {units[metric]:<6}{extra}")
    if "per_layer" in cell:
        layer_units = {m.name: m.unit for m in catalog.PER_LAYER}
        for metric in sorted(cell["per_layer"]):
            print(f"  {metric:<34} {cell['per_layer'][metric]:>14.6g} "
                  f"{layer_units[metric]}")
        print(f"  per-layer self shares sum to {cell['self_share_sum']:.4f}; "
              f"trace written to {cell['trace_file']}")
        for target in cell["missing_span_targets"]:
            print(f"  WARNING span target not found, its time falls to the "
                  f"caller's layer: {target}")
    for breach in cell["breaches"]:
        print(f"  BREACH {breach}")


def _driver_result(cell: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's contract: one JSON object, exactly these keys."""
    if trace:
        metrics = {
            m.name: {"value": cell["per_layer"][m.name], "unit": m.unit}
            for m in catalog.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": cell["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in catalog.END_TO_END
        }
    return {
        "correct": cell["correct"],
        "attempted": cell["attempted"],
        "failed": cell["failed"],
        "metrics": metrics,
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="one workload (driver form); default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="wall seconds of timed reps per workload")
    parser.add_argument("--reps", type=int,
                        help="exactly this many timed reps, whatever the clock says")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced reps and report the per-layer "
                             "metrics (with --workload, as the last-line JSON)")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--out", help="write the full ledger JSON here")
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--child-rungs", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"run.py: the program is not here: {SRC_DIR / 'repro'} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.child:
        return _child_rep(args.child, args.seed, bool(args.trace), args.trace_out)
    if args.child_rungs:
        return _child_rungs()

    traced = bool(args.trace)
    try:
        if args.workload:
            # Driver form. A traced run splits its seconds between the
            # untraced reps (overhead baseline) and the traced ones.
            seconds = args.seconds / 2 if traced else args.seconds
            cell = measure(args.workload, args.seed, seconds, args.reps, traced)
            _print_cell(cell)
            print(json.dumps(_driver_result(cell, traced)))
            return 0 if cell["correct"] else 1

        rungs = _spawn(["--child-rungs"]) if traced else None
        cells = {}
        for workload in WORKLOADS:
            cells[workload.name] = measure(
                workload.name, args.seed, args.seconds, args.reps, traced,
                traced_reps=1, rungs=rungs,
            )
            _print_cell(cells[workload.name])
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    if args.out:
        ledger = {
            "schema": "perf-ledger/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "reps": args.reps,
            "commit": _commit(),
            "host": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "workloads": cells,
        }
        Path(args.out).write_text(
            json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"ledger written to {args.out}")
    return 0 if all(cell["correct"] for cell in cells.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
