"""Workload generation: arrival processes, key samplers, drivers, scenarios."""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "ArrivalProcess": "repro.workload.arrivals",
        "BurstArrivals": "repro.workload.arrivals",
        "KeySampler": "repro.workload.arrivals",
        "PeriodicArrivals": "repro.workload.arrivals",
        "PoissonArrivals": "repro.workload.arrivals",
        "UniformKeys": "repro.workload.arrivals",
        "ZipfKeys": "repro.workload.arrivals",
        "OpenLoopWorkload": "repro.workload.driver",
        "SaturationWorkload": "repro.workload.driver",
        "StaggeredSingleShot": "repro.workload.driver",
        "Workload": "repro.workload.driver",
        "heavy_load": "repro.workload.scenarios",
        "light_load": "repro.workload.scenarios",
        "moderate_load": "repro.workload.scenarios",
    },
)
