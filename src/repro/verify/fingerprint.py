"""Run fingerprints: stable digests proving two kernels replay identically.

The simulation kernel's contract is that a run is a pure function of its
configuration and seed. Any refactor of the kernel hot path (event
representation, scheduling calling convention, trace plumbing) must keep
that function *byte-identical* — same event order, same RNG draws, same
metrics. This module reduces a whole run to two SHA-256 digests:

* ``summary_sha256`` — over the canonical JSON of the
  :class:`~repro.metrics.summary.RunSummary` (aggregate equivalence);
* ``trace_sha256`` — over every trace record in order, including message
  ``repr``\\ s (event-by-event equivalence, far stronger than aggregates).

``tests/data/golden_kernel_fingerprints.json`` pins the digests produced
by the pre-refactor kernel for 3 algorithms × 3 seeds; the differential
test layer asserts the current kernel still produces them. Regenerate
with ``python -m repro.verify.fingerprint`` only when a change is *meant*
to alter simulation behaviour (and say so in the commit).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.experiments.runner import RunConfig, run_mutex

#: The pinned grid: every algorithm here runs with every seed.
GOLDEN_ALGORITHMS = ("cao-singhal", "maekawa", "ricart-agrawala")
GOLDEN_SEEDS = (0, 1, 2)


def golden_config(algorithm: str, seed: int) -> RunConfig:
    """The fixed configuration the golden fingerprints are pinned to."""
    from repro.sim.network import UniformDelay
    from repro.workload.driver import SaturationWorkload

    return RunConfig(
        algorithm=algorithm,
        n_sites=9,
        seed=seed,
        delay_model=UniformDelay(0.5, 1.5),
        cs_duration=0.05,
        workload=SaturationWorkload(5),
        trace=True,
    )


def fingerprint_run(config: RunConfig, loop=None) -> Dict[str, object]:
    """Run ``config`` and reduce the outcome to stable digests.

    ``loop`` is forwarded to :func:`run_mutex`, which lets the
    equivalence suite fingerprint the same configuration through an
    alternative main loop (e.g. repeated ``sim.step()``) and prove it
    byte-identical to ``sim.run()``.
    """
    result = run_mutex(config, loop)
    summary_json = json.dumps(result.summary.to_dict(), sort_keys=True)
    summary_sha = hashlib.sha256(summary_json.encode("utf-8")).hexdigest()

    trace_hash = hashlib.sha256()
    for rec in result.sim.trace:
        trace_hash.update(
            f"{rec.time!r}|{rec.kind}|{rec.site}|{rec.detail!r}\n".encode("utf-8")
        )
    return {
        "summary_sha256": summary_sha,
        "trace_sha256": trace_hash.hexdigest(),
        "trace_records": len(result.sim.trace),
        "events_processed": result.sim.events_processed,
        "final_time": repr(result.sim.last_event_time),
        "messages_sent": result.sim.network.stats.messages_sent,
    }


def golden_grid() -> Dict[str, Dict[str, object]]:
    """Fingerprints for the whole pinned grid, keyed ``algorithm/seed``."""
    out: Dict[str, Dict[str, object]] = {}
    for algorithm in GOLDEN_ALGORITHMS:
        for seed in GOLDEN_SEEDS:
            out[f"{algorithm}/{seed}"] = fingerprint_run(
                golden_config(algorithm, seed)
            )
    return out


def main(argv: List[str] = ()) -> int:  # pragma: no cover - maintenance tool
    """Regenerate ``tests/data/golden_kernel_fingerprints.json``."""
    import pathlib
    import sys

    repo_root = pathlib.Path(__file__).resolve().parents[3]
    target = repo_root / "tests" / "data" / "golden_kernel_fingerprints.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = golden_grid()
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(payload)} fingerprints to {target}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
