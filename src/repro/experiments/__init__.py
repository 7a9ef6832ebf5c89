"""Experiment harness: one module per table/figure (see DESIGN.md index).

========  =============================================================
E1        Table 1 — algorithm comparison (messages, sync delay)
E2        Section 5.1 — light-load cost ``3(K-1)``, response ``2T+E``
E3        Section 5.2 — heavy-load cost in ``[5(K-1), 6(K-1)]``
E4        Sync delay ``T`` vs ``2T`` across system sizes
E5        Throughput doubled / waiting halved at heavy load
E6        Quorum size scaling by construction
E7        Fault tolerance: availability curves + recovery liveness
E8        Load sweep (figure-style trade-off curves)
E9        Ablations: transfer mechanism, piggybacking
E10       Arbitration load balance across constructions
E11       Service continuity under crash/recovery churn
E12       Arbiter queue dynamics across the load range
E13       Chaos resilience: degradation vs packet-loss rate
E14       Lock-service scale sweep (lock count x client count)
E15       Lock-service key skew: shard balance + lease-cache savings
E16       Lock-service crash chaos: crash rate x detection latency
========  =============================================================
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "run_ablation": "repro.experiments.ablation",
        "run_chaos_resilience": "repro.experiments.chaos_sweep",
        "run_churn": "repro.experiments.churn",
        "run_delay": "repro.experiments.delay",
        "run_availability": "repro.experiments.fault_tolerance",
        "run_recovery": "repro.experiments.fault_tolerance",
        "run_heavy_load": "repro.experiments.heavy_load",
        "run_light_load": "repro.experiments.light_load",
        "run_load_balance": "repro.experiments.load_balance",
        "run_lock_skew": "repro.experiments.load_balance",
        "run_load_sweep": "repro.experiments.load_sweep",
        "run_lock_chaos": "repro.experiments.lock_chaos",
        "run_lock_sweep": "repro.experiments.lock_sweep",
        "run_queueing": "repro.experiments.queueing",
        "run_quorum_scaling": "repro.experiments.quorum_scaling",
        "Replication": "repro.experiments.replicate",
        "replicate": "repro.experiments.replicate",
        "sync_delay_ci": "repro.experiments.replicate",
        "ExperimentReport": "repro.experiments.report",
        "RunConfig": "repro.experiments.runner",
        "RunResult": "repro.experiments.runner",
        "quick_run": "repro.experiments.runner",
        "run_mutex": "repro.experiments.runner",
        "run_table1": "repro.experiments.table1",
        "run_throughput": "repro.experiments.throughput",
    },
)
