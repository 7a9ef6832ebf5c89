"""``BENCHMARK.json`` self-check: the file at the repo root is exactly
what the catalogue renders, and the catalogue obeys the benchmark
contract's limits."""

import json
import re
from pathlib import Path

import catalog
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_rendered_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == catalog.benchmark_json()


def test_contract_limits():
    spec = catalog.benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()
    for part in spec["command"]:
        assert not part.startswith("/") and ".." not in part.split("/")
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_workload_says_why_and_how_it_is_loaded():
    for w in WORKLOADS:
        assert w.why and "\n" not in w.why and len(w.why) <= 200, w.name
        assert w.time_unit, w.name
        assert w.loop in ("open", "closed"), w.name
        # an open loop states its rate, a closed loop its client count
        assert ("/T" in w.load) if w.loop == "open" else ("clients" in w.load), w.name
        assert w.kind in ("mutex", "locks", "udp")


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in catalog.END_TO_END}
    workloads = {w.name for w in WORKLOADS}
    for metric in catalog.PER_LAYER:
        moved, where = metric.moves
        assert moved in end_to_end, metric.name
        assert where in workloads, metric.name
        assert metric.source in ("counts", "spans", "rung", "runs"), metric.name


def test_catalogue_and_derivations_name_the_same_metrics():
    """What ``derive`` computes is exactly what the catalogue lists under
    ``counts`` and ``spans`` (rungs and run-level figures come from
    elsewhere and are checked by running the benchmark)."""
    import derive

    facts = {
        "ops": 10, "protocol_msgs": 40, "events": 100, "network_sends": 50,
        "sync_delay_T": 1.2, "mean_quorum_size": 3.0, "by_type": {"request": 20},
    }
    tables = {
        "window_s": 1.0, "window_tracer_s": 0.1, "window_cpu_s": 0.9,
        "window_self": {"sim.simulator.Simulator.run": 0.5},
        "window_calls": {}, "rep_self": {}, "rep_total": {}, "rep_calls": {},
    }
    derived = set(derive.from_counts(facts)) | set(derive.from_spans(facts, tables))
    listed = {m.name for m in catalog.PER_LAYER if m.source in ("counts", "spans")}
    assert derived == listed
