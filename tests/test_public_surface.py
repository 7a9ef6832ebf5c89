"""The package surface is lazy (``repro/_lazy.py``) and still the same
surface: every public name resolves, lists, star-imports and pickles as
it did when the ``__init__`` files imported everything eagerly."""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"
PACKAGES = ["repro"] + sorted(
    f"repro.{init.parent.name}" for init in SRC_REPRO.glob("*/__init__.py")
)


def test_there_are_sixteen_packages():
    assert len(PACKAGES) == 16


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_and_lists(name):
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for public in package.__all__:
        assert getattr(package, public) is not None, public
    assert set(dir(package)) >= set(package.__all__)
    with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
        package.no_such_name


@pytest.mark.parametrize("name", PACKAGES)
def test_package_init_imports_nothing_but_the_lazy_helper(name):
    init = SRC_REPRO.joinpath(*name.split(".")[1:], "__init__.py")
    imports = [
        line for line in init.read_text(encoding="utf-8").splitlines()
        if line.startswith(("import ", "from "))
    ]
    assert imports == ["from repro._lazy import lazy"]


def test_star_import_works_for_every_package(fresh_python):
    fresh_python(
        "\n".join(
            f"ns = {{}}; exec('from {name} import *', ns); "
            f"import {name} as p; assert set(p.__all__) <= set(ns), '{name}'"
            for name in PACKAGES
        )
    )


def test_names_shared_with_a_submodule_keep_their_eager_meaning():
    # ``verify.explore`` is the model-checker package (the paper-gap test
    # monkeypatches through it); ``experiments.replicate`` is the function,
    # even after its defining module of the same name has been imported.
    import repro.experiments.replicate  # noqa: F401
    import repro.verify.explore  # noqa: F401
    from repro import experiments, verify

    assert isinstance(verify.explore, types.ModuleType)
    assert hasattr(verify.explore, "__path__")
    assert callable(verify.explore.explore)
    assert isinstance(experiments.replicate, types.FunctionType)
    assert sys.modules["repro.experiments.replicate"].replicate is experiments.replicate


def test_configs_still_pickle_through_the_trial_pool(monkeypatch):
    import repro.parallel.pool as pool_module
    from repro import RunConfig, TrialPool
    from repro.locks import LockRunConfig
    from repro.workload import SaturationWorkload

    assert RunConfig.__module__ == "repro.experiments.runner"
    assert LockRunConfig.__module__ == "repro.locks.runner"
    # A 1-CPU host degrades to in-process dispatch, which pickles nothing.
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
    pool = TrialPool(workers=2, chunk_size=1, dispatch="process")
    mutex = [
        RunConfig(n_sites=4, seed=s, workload=SaturationWorkload(2)) for s in (1, 2)
    ]
    assert [s.seed for s in pool.run_configs(mutex)] == [1, 2]
    locks = [LockRunConfig(shards=2, n_sites=4, n_requests=40, seed=s) for s in (1, 2)]
    assert [s.seed for s in pool.run_configs(locks)] == [1, 2]
