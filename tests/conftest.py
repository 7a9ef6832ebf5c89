"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import RunConfig, RunResult, run_mutex
from repro.sim.network import ConstantDelay
from repro.workload.driver import SaturationWorkload


def heavy_run(
    algorithm: str,
    n_sites: int = 9,
    quorum: str | None = None,
    seed: int = 0,
    requests_per_site: int = 8,
    cs_duration: float = 0.1,
    delay_model=None,
) -> RunResult:
    """Run a verified heavy-load simulation (shared across test modules)."""
    return run_mutex(
        RunConfig(
            algorithm=algorithm,
            n_sites=n_sites,
            quorum=quorum,
            seed=seed,
            delay_model=delay_model or ConstantDelay(1.0),
            cs_duration=cs_duration,
            workload=SaturationWorkload(requests_per_site),
        )
    )


@pytest.fixture
def run_heavy():
    """Fixture exposing :func:`heavy_run`."""
    return heavy_run


def _fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from this
    tree; it must exit 0. Returns its standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def fresh_python():
    """Fixture exposing :func:`_fresh_python` (what a new process imports
    can only be observed in one)."""
    return _fresh_python
