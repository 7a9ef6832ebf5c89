"""Parallel trial engine: seed fan-out, deterministic merge, result cache.

The substrate every replicated experiment runs on:

* :class:`TrialPool` — fans ``run_mutex`` trials over a process pool and
  merges summaries in input order (parallel ≡ serial, byte for byte).
* :class:`RunCache` — content-addressed on-disk cache of trial summaries,
  keyed by a stable config fingerprint plus a protocol version salt.
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "CACHE_DIR_ENV": "repro.parallel.cache",
        "PROTOCOL_VERSION": "repro.parallel.cache",
        "RunCache": "repro.parallel.cache",
        "default_cache_dir": "repro.parallel.cache",
        "describe_config": "repro.parallel.cache",
        "fingerprint": "repro.parallel.cache",
        "DISPATCH_ENV": "repro.parallel.pool",
        "TrialPool": "repro.parallel.pool",
        "WORKERS_ENV": "repro.parallel.pool",
        "resolve_dispatch": "repro.parallel.pool",
        "resolve_workers": "repro.parallel.pool",
        "run_trials": "repro.parallel.pool",
    },
)
