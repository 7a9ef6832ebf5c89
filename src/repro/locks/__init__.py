"""Sharded multi-resource lock service over the mutual-exclusion kernel.

Named locks (string keys) hash onto ``K`` independent mutex instances —
each an unmodified registry algorithm running over a shard-private
substrate view of one simulator — with per-site front ends providing
request batching, coalescing, and a Roucairol–Carvalho-style lease
cache for hot keys. Under crash faults the shard arbiters run the
paper's Section 6 recovery protocol and the service adds client-side
failover (seeded backoff retries, idempotent request ids) plus lease
fencing. See ``docs/API.md`` for the layer map and DESIGN.md §10 for
the failure model.
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "KeyConformanceChecker": "repro.locks.conformance",
        "check_key_mutual_exclusion": "repro.locks.conformance",
        "RetryPolicy": "repro.locks.faults",
        "derive_shard_crashes": "repro.locks.faults",
        "LockRequest": "repro.locks.frontend",
        "ShardFrontEnd": "repro.locks.frontend",
        "ShardRouter": "repro.locks.router",
        "stable_key_hash": "repro.locks.router",
        "LockRunConfig": "repro.locks.runner",
        "LockRunResult": "repro.locks.runner",
        "LockServiceSummary": "repro.locks.runner",
        "run_lock_configs": "repro.locks.runner",
        "run_lock_service": "repro.locks.runner",
        "LockService": "repro.locks.service",
        "LockStats": "repro.locks.service",
        "ShardView": "repro.locks.substrate",
    },
)
