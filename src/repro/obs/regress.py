"""Benchmark-regression comparator: diff fresh ``BENCH_*.json`` against
committed baselines.

CI regenerates the kernel and chaos benchmarks on every push; this module
is the gate that decides whether the new numbers are still the old
numbers. Each benchmark file has an extractor that flattens its payload
into named scalar metrics, and each metric a :class:`MetricSpec` saying
which direction is bad and how much drift the noise floor allows:

* ``sim_kernel`` — ``events_per_sec`` (higher is better; the PR-2
  refactor's headline), ``events_processed`` (exact: a changed event
  count means the kernel's determinism contract broke, not noise),
  ``message_complexity_c`` (lower is better **and** bounded to the
  paper's Section 5 claim ``3 <= c <= 6`` — an absolute check, so a
  protocol change that silently blows the message complexity fails even
  against a freshly regenerated baseline).
* ``chaos_resilience`` — per ``(loss, algorithm)`` row: response time,
  messages/CS and retransmits/CS (lower), throughput (higher).
* ``parallel_engine`` — ``sync_delay_mean_t`` only (the timing fields
  measure the host, not the code).
* ``lock_service`` — the sharded named-lock acceptance run:
  ``completed`` is exact and ``violations`` bounded to zero (per-key
  mutual exclusion is a theorem, not a trend), messages/acquire lower
  is better, and ``lease_reduction_pct`` must stay positive — the
  hot-key lease cache beating its lease-off control is part of the
  layer's contract, checked absolutely so it holds even against a
  freshly regenerated baseline.

Timing metrics default to a generous threshold (CI containers are noisy);
exact and bounded metrics ignore the threshold entirely.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common import slotted_dataclass

#: Default allowed drift for thresholded metrics, percent.
DEFAULT_THRESHOLD_PCT = 25.0


@slotted_dataclass(frozen=True)
class MetricSpec:
    """How one metric is judged.

    ``direction`` is ``"higher"`` (bigger is better), ``"lower"``
    (smaller is better), or ``"exact"`` (any change fails).
    ``threshold_pct`` overrides the run-wide threshold; ``bounds`` adds
    an absolute ``lo <= value <= hi`` check on the *current* value.
    """

    direction: str = "lower"
    threshold_pct: Optional[float] = None
    bounds: Optional[Tuple[float, float]] = None


@dataclass
class MetricResult:
    """Outcome of judging one metric of one benchmark."""

    benchmark: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    #: ok | improved | regression | bound-violation | exact-mismatch |
    #: missing | new | no-spec
    status: str = "ok"
    delta_pct: Optional[float] = None
    allowed: str = ""
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "bound-violation", "exact-mismatch")


@dataclass
class RegressionReport:
    """All metric judgements for one baseline/current comparison."""

    results: List[MetricResult] = field(default_factory=list)
    threshold_pct: float = DEFAULT_THRESHOLD_PCT

    @property
    def failures(self) -> List[MetricResult]:
        return [r for r in self.results if r.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_markdown(self) -> str:
        """The report CI writes to ``$GITHUB_STEP_SUMMARY``."""
        lines = ["# Benchmark regression report", ""]
        failures = self.failures
        if failures:
            names = ", ".join(f"`{r.benchmark}:{r.metric}`" for r in failures)
            lines.append(
                f"**FAIL** — {len(failures)} metric(s) regressed: {names}"
            )
        else:
            judged = sum(1 for r in self.results if r.status != "no-spec")
            lines.append(
                f"**PASS** — {judged} metric(s) within thresholds "
                f"(±{self.threshold_pct:g}% where thresholded)"
            )
        lines += [
            "",
            "| benchmark | metric | baseline | current | Δ | allowed | status |",
            "|---|---|---:|---:|---:|---|---|",
        ]
        for r in self.results:
            delta = "" if r.delta_pct is None else f"{r.delta_pct:+.1f}%"
            status = f"**{r.status}**" if r.failed else r.status
            lines.append(
                f"| {r.benchmark} | {r.metric} | {_fmt(r.baseline)} "
                f"| {_fmt(r.current)} | {delta} | {r.allowed} | {status} |"
            )
        notes = [r for r in self.results if r.note]
        if notes:
            lines.append("")
            for r in notes:
                lines.append(f"- `{r.benchmark}:{r.metric}` — {r.note}")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:g}"


# -- per-benchmark extractors ---------------------------------------------
# Each maps a parsed payload to {metric_name: value} and is paired with
# the spec table for its metrics.

def _extract_sim_kernel(payload: Dict[str, Any]) -> Dict[str, float]:
    out = {
        "events_per_sec": float(payload["events_per_sec"]),
        "events_processed": float(payload["events_processed"]),
    }
    if "message_complexity_c" in payload:
        out["message_complexity_c"] = float(payload["message_complexity_c"])
    return out


def _extract_chaos(payload: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in payload["rows"]:
        loss, algorithm, resp, msgs, rtx, thrpt = row
        key = f"loss={loss:g}/{algorithm}"
        out[f"{key}/resp_t"] = float(resp)
        out[f"{key}/msgs_per_cs"] = float(msgs)
        out[f"{key}/rtx_per_cs"] = float(rtx)
        out[f"{key}/throughput"] = float(thrpt)
    return out


def _extract_parallel(payload: Dict[str, Any]) -> Dict[str, float]:
    return {"sync_delay_mean_t": float(payload["sync_delay_mean_t"])}


def _extract_lock_service(payload: Dict[str, Any]) -> Dict[str, float]:
    return {
        "completed": float(payload["completed"]),
        "violations": float(payload["violations"]),
        "messages_per_acquire_lease_on": float(
            payload["messages_per_acquire_lease_on"]
        ),
        "messages_per_acquire_lease_off": float(
            payload["messages_per_acquire_lease_off"]
        ),
        "lease_reduction_pct": float(payload["lease_reduction_pct"]),
        "shard_hotspot": float(payload["shard_hotspot"]),
    }


def _extract_lock_chaos(payload: Dict[str, Any]) -> Dict[str, float]:
    return {
        "completed": float(payload["completed"]),
        "violations": float(payload["violations"]),
        "crashes": float(payload["crashes"]),
        "failovers": float(payload["failovers"]),
        "orphaned": float(payload["orphaned"]),
        "aborted": float(payload["aborted"]),
        "availability": float(payload["availability"]),
        "messages_per_acquire": float(payload["messages_per_acquire"]),
        "p99_wait": float(payload["p99_wait"]),
    }


def _extract_explore(payload: Dict[str, Any]) -> Dict[str, float]:
    return {
        f"{section}/states_per_sec": float(payload[section]["states_per_sec"])
        for section in ("throughput", "fault_grid_n9")
    }


def _chaos_spec(metric: str) -> MetricSpec:
    if metric.endswith("/throughput"):
        return MetricSpec(direction="higher")
    return MetricSpec(direction="lower")


Extractor = Callable[[Dict[str, Any]], Dict[str, float]]

#: benchmark name (the ``BENCH_<name>.json`` stem) -> (extractor, specs).
#: ``specs`` may be a dict or a callable for row-keyed benchmarks.
BENCHMARKS: Dict[str, Tuple[Extractor, Any]] = {
    "sim_kernel": (
        _extract_sim_kernel,
        {
            "events_per_sec": MetricSpec(direction="higher"),
            "events_processed": MetricSpec(direction="exact"),
            "message_complexity_c": MetricSpec(
                direction="lower", bounds=(3.0, 6.0)
            ),
        },
    ),
    "chaos_resilience": (_extract_chaos, _chaos_spec),
    "explore": (_extract_explore, lambda metric: MetricSpec(direction="higher")),
    "parallel_engine": (
        _extract_parallel,
        {"sync_delay_mean_t": MetricSpec(direction="lower")},
    ),
    "lock_service": (
        _extract_lock_service,
        {
            # Deterministic for the pinned seed: any change is a changed
            # schedule, not noise.
            "completed": MetricSpec(direction="exact"),
            "violations": MetricSpec(direction="exact", bounds=(0.0, 0.0)),
            "messages_per_acquire_lease_on": MetricSpec(direction="lower"),
            "messages_per_acquire_lease_off": MetricSpec(direction="lower"),
            # Absolute floor: the lease cache must keep beating the
            # lease-off control by a measurable margin.
            "lease_reduction_pct": MetricSpec(
                direction="higher", bounds=(5.0, 100.0)
            ),
            "shard_hotspot": MetricSpec(direction="lower"),
        },
    ),
    "lock_chaos": (
        _extract_lock_chaos,
        {
            # Crash schedules draw from shard-qualified RNG streams, so
            # every counter is deterministic for the pinned seed: exact,
            # with absolute bounds where the failure model promises one.
            "completed": MetricSpec(direction="exact"),
            "violations": MetricSpec(direction="exact", bounds=(0.0, 0.0)),
            "crashes": MetricSpec(direction="exact"),
            # Failover must actually be exercised, not vacuously green.
            "failovers": MetricSpec(
                direction="exact", bounds=(1.0, float("inf"))
            ),
            "orphaned": MetricSpec(direction="exact"),
            "aborted": MetricSpec(direction="exact"),
            # Degraded windows are real but bounded: the service stays
            # mostly up across the seeded crash cycles.
            "availability": MetricSpec(
                direction="higher", bounds=(0.25, 1.0)
            ),
            "messages_per_acquire": MetricSpec(direction="lower"),
            "p99_wait": MetricSpec(direction="lower"),
        },
    ),
}


def _spec_for(specs: Any, metric: str) -> Optional[MetricSpec]:
    if callable(specs):
        return specs(metric)
    return specs.get(metric)


def _judge(
    benchmark: str,
    metric: str,
    spec: MetricSpec,
    baseline: Optional[float],
    current: Optional[float],
    threshold_pct: float,
) -> MetricResult:
    result = MetricResult(
        benchmark=benchmark, metric=metric, baseline=baseline, current=current
    )
    if spec.bounds is not None:
        lo, hi = spec.bounds
        result.allowed = f"∈ [{lo:g}, {hi:g}]"
    elif spec.direction == "exact":
        result.allowed = "exact"
    else:
        pct = spec.threshold_pct if spec.threshold_pct is not None else threshold_pct
        worse = "-" if spec.direction == "higher" else "+"
        result.allowed = f"{worse}{pct:g}%"
    if current is None:
        # Baseline-only metric: the CI run regenerates a subset of the
        # benchmarks, so absence is reported, never failed on.
        result.status = "missing"
        return result
    if baseline is None:
        result.status = "new"
        if spec.bounds is not None:
            lo, hi = spec.bounds
            if not (lo <= current <= hi):
                result.status = "bound-violation"
                result.note = (
                    f"{current:g} outside the required [{lo:g}, {hi:g}]"
                )
        return result
    if baseline:
        result.delta_pct = (current - baseline) / abs(baseline) * 100.0
    if spec.bounds is not None:
        lo, hi = spec.bounds
        if not (lo <= current <= hi):
            result.status = "bound-violation"
            result.note = f"{current:g} outside the required [{lo:g}, {hi:g}]"
            return result
    if spec.direction == "exact":
        if current != baseline:
            result.status = "exact-mismatch"
            result.note = (
                "deterministic value changed — the event history is "
                "different, not slower"
            )
        else:
            result.status = "ok"
        return result
    pct = spec.threshold_pct if spec.threshold_pct is not None else threshold_pct
    delta = result.delta_pct if result.delta_pct is not None else 0.0
    if spec.direction == "higher":
        regressed = delta < -pct
        improved = delta > pct
    else:
        regressed = delta > pct
        improved = delta < -pct
    result.status = (
        "regression" if regressed else "improved" if improved else "ok"
    )
    return result


def load_results(directory: str) -> Dict[str, Dict[str, Any]]:
    """Parse every ``BENCH_*.json`` under ``directory``, keyed by stem."""
    out: Dict[str, Dict[str, Any]] = {}
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        stem = name[len("BENCH_"):-len(".json")]
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            out[stem] = json.load(fh)
    return out


def compare(
    baseline: Dict[str, Dict[str, Any]],
    current: Dict[str, Dict[str, Any]],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> RegressionReport:
    """Judge every known metric of every benchmark present on either side."""
    report = RegressionReport(threshold_pct=threshold_pct)
    for name in sorted(set(baseline) | set(current)):
        known = BENCHMARKS.get(name)
        if known is None:
            report.results.append(
                MetricResult(
                    benchmark=name,
                    metric="-",
                    baseline=None,
                    current=None,
                    status="no-spec",
                    note="no extractor registered; not judged",
                )
            )
            continue
        extractor, specs = known
        base_metrics = extractor(baseline[name]) if name in baseline else {}
        cur_metrics = extractor(current[name]) if name in current else {}
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            spec = _spec_for(specs, metric)
            if spec is None:
                continue
            report.results.append(
                _judge(
                    name,
                    metric,
                    spec,
                    base_metrics.get(metric),
                    cur_metrics.get(metric),
                    threshold_pct,
                )
            )
    return report


def check(
    baseline_dir: str,
    current_dir: str,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> RegressionReport:
    """Directory-level entry point used by ``repro.cli regress``."""
    return compare(
        load_results(baseline_dir), load_results(current_dir), threshold_pct
    )
