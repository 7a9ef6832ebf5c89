"""repro — reference implementation of Cao & Singhal's delay-optimal
quorum-based distributed mutual exclusion (ICDCS 1998).

Public surface (see README for a tour):

* :mod:`repro.core` — the proposed algorithm (and its fault-tolerant
  extension).
* :mod:`repro.quorums` — coteries and every quorum construction the paper
  references.
* :mod:`repro.mutex` — the baseline algorithms of Table 1.
* :mod:`repro.sim` — the discrete-event simulation substrate.
* :mod:`repro.workload`, :mod:`repro.metrics`, :mod:`repro.verify` —
  load generation, measurement, and dynamic verification of the paper's
  theorems.
* :mod:`repro.experiments` — one module per table/figure of the paper.
* :mod:`repro.parallel` — the trial engine: seed fan-out over worker
  processes plus the content-addressed on-disk run cache.
"""

from repro._lazy import lazy

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "CaoSinghalSite": "repro.core.site",
        "RunConfig": "repro.experiments.runner",
        "RunResult": "repro.experiments.runner",
        "quick_run": "repro.experiments.runner",
        "run_many": "repro.experiments.runner",
        "run_mutex": "repro.experiments.runner",
        "RunSummary": "repro.metrics.summary",
        "algorithm_names": "repro.mutex.registry",
        "make_site": "repro.mutex.registry",
        "RunCache": "repro.parallel.cache",
        "TrialPool": "repro.parallel.pool",
        "run_trials": "repro.parallel.pool",
        "make_quorum_system": "repro.quorums.registry",
        "quorum_system_names": "repro.quorums.registry",
        "ConstantDelay": "repro.sim.network",
        "ExponentialDelay": "repro.sim.network",
        "UniformDelay": "repro.sim.network",
        "Simulator": "repro.sim.simulator",
    },
)
__all__.append("__version__")
