"""Mutual-exclusion algorithms: the paper's baselines plus shared machinery.

The proposed algorithm itself lives in :mod:`repro.core`; this package
holds the shared site lifecycle (:class:`~repro.mutex.base.MutexSite`), the
message primitives (including the piggybacking :class:`Bundle` and the
Lamport :class:`Priority`), and an independent implementation of every
algorithm in the paper's Table 1 comparison.
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "DurationSpec": "repro.mutex.base",
        "MutexSite": "repro.mutex.base",
        "RunListener": "repro.mutex.base",
        "SiteState": "repro.mutex.base",
        "CentralizedSite": "repro.mutex.centralized",
        "LamportSite": "repro.mutex.lamport",
        "MaekawaSite": "repro.mutex.maekawa",
        "Bundle": "repro.mutex.messages",
        "Priority": "repro.mutex.messages",
        "bundle_or_single": "repro.mutex.messages",
        "RaymondSite": "repro.mutex.raymond",
        "AlgorithmSpec": "repro.mutex.registry",
        "algorithm_names": "repro.mutex.registry",
        "get_algorithm_spec": "repro.mutex.registry",
        "make_site": "repro.mutex.registry",
        "RicartAgrawalaSite": "repro.mutex.ricart_agrawala",
        "RoucairolCarvalhoSite": "repro.mutex.roucairol_carvalho",
        "SinghalHeuristicSite": "repro.mutex.singhal_heuristic",
        "SuzukiKasamiSite": "repro.mutex.suzuki_kasami",
    },
)
