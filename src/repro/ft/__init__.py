"""Fault tolerance: failure detection, the Section 6 recovery protocol,
and the deterministic chaos engine."""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "ChaosSchedule": "repro.ft.chaos",
        "CrashCycle": "repro.ft.chaos",
        "DelaySpike": "repro.ft.chaos",
        "FaultPlan": "repro.ft.chaos",
        "LinkCut": "repro.ft.chaos",
        "LossBurst": "repro.ft.chaos",
        "chaos_preset": "repro.ft.chaos",
        "install_crash_cycles": "repro.ft.chaos",
        "Heartbeat": "repro.ft.detector",
        "HeartbeatMonitor": "repro.ft.detector",
        "MonitoredSite": "repro.ft.recovery",
    },
)
