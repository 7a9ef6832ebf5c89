"""Observability layer: runtime invariant monitoring, trace export,
profiling snapshots, and the benchmark-regression gate.

Everything here is strictly additive over the kernel's existing trace
and counter plumbing: a run without a monitor or profiler attached
executes the exact PR-2 hot path (the golden-fingerprint tests pin
this). See ``docs/API.md`` for the invariant table, the JSONL trace
schema, and the regression thresholds CI enforces.
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "InvariantViolation": "repro.errors",
        "SCHEMA": "repro.obs.export",
        "TraceFile": "repro.obs.export",
        "export_jsonl": "repro.obs.export",
        "import_jsonl": "repro.obs.export",
        "MonitorTrace": "repro.obs.monitor",
        "ProtocolMonitor": "repro.obs.monitor",
        "LoopProfiler": "repro.obs.profile",
        "profiled_run": "repro.obs.profile",
        "snapshot": "repro.obs.profile",
        "DEFAULT_THRESHOLD_PCT": "repro.obs.regress",
        "MetricSpec": "repro.obs.regress",
        "RegressionReport": "repro.obs.regress",
        "check": "repro.obs.regress",
        "compare": "repro.obs.regress",
        "load_results": "repro.obs.regress",
    },
)
