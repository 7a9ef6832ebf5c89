"""What each entry point imports, and when. Deterministic: no timing.

The paper's system is N independent site processes, and trial workers
and benchmark reps are fresh interpreters too, so whatever one import
loads is paid once per process. Every case runs in a fresh ``python -c``
child and reads ``sys.modules``.

First half: an entry module loads only what its own runs use (package
``__init__`` files are lazy tables, see ``repro/_lazy.py``). Second
half: it loads *all* of it — a run adds no ``repro.*`` module, so no
import cost hides inside a run or verify phase.
"""

from __future__ import annotations

import json

import pytest

#: Never loaded by any of the three entry modules.
NEVER = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.parallel.pool",
    "repro.verify.explore",
)


def _loaded(modules, prefix: str) -> list:
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


@pytest.mark.parametrize(
    "entry, ceiling, also_absent",
    [
        ("repro.experiments.runner", 160, ("asyncio",)),
        ("repro.locks.runner", 160, ("asyncio",)),
        ("repro.net.site_proc", 230, ("repro.locks", "repro.ft.chaos")),
    ],
)
def test_entry_module_loads_only_what_it_uses(
    fresh_python, entry, ceiling, also_absent
):
    modules = json.loads(
        fresh_python(f"import sys, json, {entry}\nprint(json.dumps(sorted(sys.modules)))")
    )
    for prefix in NEVER + also_absent:
        assert _loaded(modules, prefix) == [], (entry, prefix)
    experiments = _loaded(modules, "repro.experiments")
    assert set(experiments) <= {"repro.experiments", "repro.experiments.runner"}
    assert len(modules) <= ceiling, f"{entry} loads {len(modules)} modules"


RUNS = {
    "repro.experiments.runner": """
from repro.experiments.runner import RunConfig, run_mutex
from repro.workload.driver import SaturationWorkload
config = RunConfig(n_sites=9, seed=1, workload=SaturationWorkload(3))
before = set(sys.modules)
assert run_mutex(config).summary.completed == 27
""",
    "repro.locks.runner": """
from repro.locks.runner import LockRunConfig, run_lock_service
config = LockRunConfig(shards=2, n_sites=5, n_requests=120, crashes=1, seed=1)
before = set(sys.modules)
assert run_lock_service(config).summary.crashes == 2
""",
    "repro.net.launcher": """
from repro.net.config import NetRunConfig
from repro.net.launcher import run_net
config = NetRunConfig(n_sites=4, requests_per_site=2, seed=1, unit=0.005)
before = set(sys.modules)
report = run_net(config, spawn="inproc")
assert report.completed == 8 and not report.violations
""",
}


@pytest.mark.parametrize("entry", sorted(RUNS))
def test_a_run_imports_nothing_the_entry_module_had_not(fresh_python, entry):
    out = fresh_python(
        "import sys, json\n"
        + RUNS[entry]
        + "late = sorted(m for m in set(sys.modules) - before"
        " if m.startswith('repro'))\n"
        "print(json.dumps(late))"
    )
    late = json.loads(out.splitlines()[-1])
    assert late == [], f"{entry}: first imported during a run: {late}"
