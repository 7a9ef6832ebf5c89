"""Measurement layer: lifecycle records, summaries, and table rendering."""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "CSRecord": "repro.metrics.collector",
        "MetricsCollector": "repro.metrics.collector",
        "ArbiterSampler": "repro.metrics.instruments",
        "CacheStats": "repro.metrics.instruments",
        "QueueSample": "repro.metrics.instruments",
        "QueueStats": "repro.metrics.instruments",
        "RunSummary": "repro.metrics.summary",
        "Stats": "repro.metrics.summary",
        "jain_fairness": "repro.metrics.summary",
        "summarize": "repro.metrics.summary",
        "sync_delays": "repro.metrics.summary",
        "render_csv": "repro.metrics.tables",
        "render_table": "repro.metrics.tables",
        "render_timeline": "repro.metrics.timeline",
    },
)
