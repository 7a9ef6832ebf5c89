"""Coteries and quorum constructions (paper Sections 2, 5.3, and 6).

The proposed algorithm is *quorum-agnostic*: it takes any
:class:`~repro.quorums.coterie.QuorumSystem` whose per-site quorums satisfy
pairwise intersection. This package provides the coterie framework plus all
the constructions the paper discusses: Maekawa grids (``K ~ sqrt(N)``),
Agrawal–El Abbadi trees (``K ~ log N``), hierarchical quorum consensus,
majority voting, grid-set, Rangarajan–Setia–Tripathi, and two degenerate
baselines (singleton, wheel), along with availability analysis used by the
fault-tolerance experiments.
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "AvailabilityPoint": "repro.quorums.availability",
        "availability_curve": "repro.quorums.availability",
        "exact_availability": "repro.quorums.availability",
        "monte_carlo_availability": "repro.quorums.availability",
        "node_resilience": "repro.quorums.availability",
        "Coterie": "repro.quorums.coterie",
        "ExplicitQuorumSystem": "repro.quorums.coterie",
        "Quorum": "repro.quorums.coterie",
        "QuorumSystem": "repro.quorums.coterie",
        "FPPQuorumSystem": "repro.quorums.fpp",
        "GridQuorumSystem": "repro.quorums.grid",
        "GridSetQuorumSystem": "repro.quorums.gridset",
        "HierarchicalQuorumSystem": "repro.quorums.hierarchical",
        "MajorityQuorumSystem": "repro.quorums.majority",
        "make_quorum_system": "repro.quorums.registry",
        "quorum_system_names": "repro.quorums.registry",
        "register_quorum_system": "repro.quorums.registry",
        "RSTQuorumSystem": "repro.quorums.rst",
        "SingletonQuorumSystem": "repro.quorums.singleton",
        "compose": "repro.quorums.theory",
        "coterie_degree_profile": "repro.quorums.theory",
        "dominating_extension": "repro.quorums.theory",
        "is_nondominated": "repro.quorums.theory",
        "minimal_transversals": "repro.quorums.theory",
        "TreeQuorumSystem": "repro.quorums.tree",
        "WheelQuorumSystem": "repro.quorums.wheel",
    },
)
