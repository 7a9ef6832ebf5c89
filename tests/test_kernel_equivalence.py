"""Differential equivalence: the kernel still replays the pinned goldens.

``tests/data/golden_kernel_fingerprints.json`` holds run fingerprints
(summary digest, per-record trace digest, event/message counts, final
clock) captured from the kernel *before* the hot-path refactor, for
3 algorithms x 3 seeds. This test re-runs each configuration on the
current kernel and asserts every field matches byte-for-byte — the
strongest practical proof that an optimisation changed the kernel's
speed and nothing else.

If this test fails after an intentional behaviour change, regenerate the
goldens with ``python -m repro.verify.fingerprint`` and call the change
out in the commit message; never regenerate to make a refactor pass.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.verify.fingerprint import (
    GOLDEN_ALGORITHMS,
    GOLDEN_SEEDS,
    fingerprint_run,
    golden_config,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_kernel_fingerprints.json"
)

GRID = [
    (algorithm, seed)
    for algorithm in GOLDEN_ALGORITHMS
    for seed in GOLDEN_SEEDS
]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_whole_grid(goldens):
    assert sorted(goldens) == sorted(f"{a}/{s}" for a, s in GRID)


@pytest.mark.parametrize("algorithm,seed", GRID)
def test_kernel_replays_golden_fingerprint(goldens, algorithm, seed):
    key = f"{algorithm}/{seed}"
    expected = goldens[key]
    actual = fingerprint_run(golden_config(algorithm, seed))
    # Compare field-by-field so a failure names what diverged (counts
    # catch gross drift; the trace digest catches single-event drift).
    for field in expected:
        assert actual[field] == expected[field], (
            f"{key}: kernel diverged from golden on {field!r}"
        )


def _step_loop(sim, until=None, max_events=None):
    """Drive the run through repeated ``step()`` calls."""
    while sim.step():
        pass


@pytest.mark.parametrize("algorithm,seed", GRID)
def test_per_event_loop_replays_golden_fingerprint(goldens, algorithm, seed):
    # ``step()`` is ``run(max_events=1)``: stopping and resuming the loop
    # after every event must replay exactly the (time, seq) history of
    # one uninterrupted ``run()``, i.e. the same pinned digests.
    key = f"{algorithm}/{seed}"
    expected = goldens[key]
    actual = fingerprint_run(golden_config(algorithm, seed), loop=_step_loop)
    for field in expected:
        assert actual[field] == expected[field], (
            f"{key}: per-event loop diverged from golden on {field!r}"
        )
