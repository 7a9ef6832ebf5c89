"""Closed-form analysis: the paper's Section 5 formulas and Table 1."""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "AlgorithmCosts": "repro.analysis.closed_form",
        "HEAVY_LOAD_CASE_MULTIPLIERS": "repro.analysis.closed_form",
        "centralized_costs": "repro.analysis.closed_form",
        "gridset_quorum_size": "repro.analysis.closed_form",
        "heavy_load_message_bounds": "repro.analysis.closed_form",
        "hierarchical_quorum_size": "repro.analysis.closed_form",
        "lamport_costs": "repro.analysis.closed_form",
        "light_load_messages": "repro.analysis.closed_form",
        "light_load_response_time": "repro.analysis.closed_form",
        "maekawa_costs": "repro.analysis.closed_form",
        "maekawa_quorum_size": "repro.analysis.closed_form",
        "majority_quorum_size": "repro.analysis.closed_form",
        "proposed_costs": "repro.analysis.closed_form",
        "raymond_costs": "repro.analysis.closed_form",
        "ricart_agrawala_costs": "repro.analysis.closed_form",
        "roucairol_carvalho_costs": "repro.analysis.closed_form",
        "rst_quorum_size": "repro.analysis.closed_form",
        "singhal_heuristic_costs": "repro.analysis.closed_form",
        "suzuki_kasami_costs": "repro.analysis.closed_form",
        "tree_quorum_size": "repro.analysis.closed_form",
        "analytic_table1": "repro.analysis.table1",
        "render_analytic_table1": "repro.analysis.table1",
    },
)
