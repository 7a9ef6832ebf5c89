"""Dynamic verification of the paper's theorems and protocol invariants."""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "check_arbiter_invariants": "repro.verify.checker",
        "check_quiescent": "repro.verify.checker",
        "lock_holders": "repro.verify.checker",
        "ExplorationResult": "repro.verify.explore",
        "build_world": "repro.verify.explore",
        "check_mutual_exclusion": "repro.verify.invariants",
        "check_progress": "repro.verify.invariants",
        "check_sequential_per_site": "repro.verify.invariants",
    },
    # ``explore`` is the model-checker *package*, never the function of
    # the same name inside it: ``import repro.verify.explore as ex`` (the
    # paper-gap test's ``_ExploreSite`` monkeypatch hook) resolves
    # through exactly this attribute.
    submodules=("explore",),
)
