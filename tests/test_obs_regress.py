"""Benchmark-regression gate: the comparator must bite when numbers move.

The acceptance case for the CI gate is explicit: a 30% events/sec
slowdown, or a message-complexity ``c`` outside the paper's [3, 6]
bound, must fail the check and name the metric in the report. Equally
important, noise-floor drift and benchmark subsets must *not* fail.
"""

from __future__ import annotations

import copy
import json

from repro.obs.regress import (
    DEFAULT_THRESHOLD_PCT,
    MetricSpec,
    check,
    compare,
    load_results,
)

KERNEL = {
    "benchmark": "sim_kernel",
    "events_processed": 63_507,
    "events_per_sec": 150_000,
    "message_complexity_c": 4.508,
}

CHAOS = {
    "benchmark": "chaos_resilience",
    "headers": ["loss", "algorithm", "resp(T)", "msgs/CS", "rtx/CS", "thrpt"],
    "rows": [
        [0.0, "cao-singhal", 15.5, 32.7, 0.6, 0.50],
        [0.2, "cao-singhal", 50.3, 47.2, 10.9, 0.12],
    ],
}

PARALLEL = {"benchmark": "parallel_engine", "sync_delay_mean_t": 1.407}


def write_results(directory, **payloads):
    directory.mkdir(parents=True, exist_ok=True)
    for name, payload in payloads.items():
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))
    return str(directory)


def baseline_dirs(tmp_path):
    base = write_results(
        tmp_path / "base", sim_kernel=KERNEL, chaos_resilience=CHAOS,
        parallel_engine=PARALLEL,
    )
    return base, tmp_path / "cur"


def test_identical_results_pass(tmp_path):
    base, cur = baseline_dirs(tmp_path)
    write_results(
        cur, sim_kernel=KERNEL, chaos_resilience=CHAOS, parallel_engine=PARALLEL
    )
    report = check(base, str(cur))
    assert report.ok
    assert report.failures == []
    assert "**PASS**" in report.to_markdown()


def test_thirty_percent_slowdown_fails_naming_the_metric(tmp_path):
    base, cur = baseline_dirs(tmp_path)
    slow = copy.deepcopy(KERNEL)
    slow["events_per_sec"] = round(KERNEL["events_per_sec"] * 0.7)
    write_results(cur, sim_kernel=slow)
    report = check(base, str(cur), threshold_pct=25.0)
    assert not report.ok
    assert [(r.benchmark, r.metric) for r in report.failures] == [
        ("sim_kernel", "events_per_sec")
    ]
    failure = report.failures[0]
    assert failure.status == "regression"
    assert failure.delta_pct < -25.0
    markdown = report.to_markdown()
    assert "**FAIL**" in markdown
    assert "`sim_kernel:events_per_sec`" in markdown


def test_noise_floor_drift_passes(tmp_path):
    base, cur = baseline_dirs(tmp_path)
    noisy = copy.deepcopy(KERNEL)
    noisy["events_per_sec"] = round(KERNEL["events_per_sec"] * 0.9)
    write_results(cur, sim_kernel=noisy)
    assert check(base, str(cur), threshold_pct=25.0).ok


def test_complexity_bound_violation_fails_even_against_same_baseline(tmp_path):
    """c outside [3, 6] is an absolute check on the paper's claim — a
    freshly regenerated baseline with the same bad value must not mask
    it."""
    base, cur = baseline_dirs(tmp_path)
    bad = copy.deepcopy(KERNEL)
    bad["message_complexity_c"] = 6.5
    write_results(cur, sim_kernel=bad)
    report = check(base, str(cur))
    assert [r.metric for r in report.failures] == ["message_complexity_c"]
    assert report.failures[0].status == "bound-violation"

    # Same bad value on both sides: still a failure.
    both_bad = write_results(cur.parent / "base_bad", sim_kernel=bad)
    report = check(both_bad, str(cur))
    assert [r.status for r in report.failures] == ["bound-violation"]
    assert "outside the required [3, 6]" in report.to_markdown()


def test_event_count_change_is_exact_mismatch(tmp_path):
    base, cur = baseline_dirs(tmp_path)
    shifted = copy.deepcopy(KERNEL)
    shifted["events_processed"] = KERNEL["events_processed"] + 1
    write_results(cur, sim_kernel=shifted)
    report = check(base, str(cur))
    assert [r.status for r in report.failures] == ["exact-mismatch"]
    assert report.failures[0].metric == "events_processed"


def test_chaos_directions_throughput_up_is_good_rest_down_is_good(tmp_path):
    base, cur = baseline_dirs(tmp_path)
    worse = copy.deepcopy(CHAOS)
    worse["rows"][0][2] *= 1.4  # resp(T) up 40%: regression
    worse["rows"][0][5] *= 1.4  # throughput up 40%: improvement
    write_results(cur, chaos_resilience=worse)
    report = check(base, str(cur))
    statuses = {f"{r.metric}": r.status for r in report.results if r.delta_pct}
    assert statuses["loss=0/cao-singhal/resp_t"] == "regression"
    assert statuses["loss=0/cao-singhal/throughput"] == "improved"
    assert [r.metric for r in report.failures] == ["loss=0/cao-singhal/resp_t"]


def test_explorer_states_per_sec_is_gated_on_the_committed_artifact(tmp_path):
    # The explorer's throughput has no other gate: both states/sec
    # figures of the real BENCH_explore.json shape must be judged.
    import pathlib

    results = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
    committed = load_results(str(results))["explore"]
    base = write_results(tmp_path / "base", explore=committed)
    slow = copy.deepcopy(committed)
    slow["throughput"]["states_per_sec"] *= 0.7
    slow["fault_grid_n9"]["states_per_sec"] *= 0.9
    report = check(base, write_results(tmp_path / "cur", explore=slow), 25.0)
    assert {r.metric: r.status for r in report.results} == {
        "throughput/states_per_sec": "regression",
        "fault_grid_n9/states_per_sec": "ok",
    }


def test_missing_current_benchmark_is_reported_not_failed(tmp_path):
    """CI regenerates a subset of the benchmarks; the ones it does not
    rerun show as 'missing' and never gate."""
    base, cur = baseline_dirs(tmp_path)
    write_results(cur, sim_kernel=KERNEL)  # no chaos, no parallel
    report = check(base, str(cur))
    assert report.ok
    missing = {r.status for r in report.results if r.benchmark != "sim_kernel"}
    assert missing == {"missing"}


def test_new_benchmark_is_reported_not_failed_unless_out_of_bounds(tmp_path):
    cur = write_results(tmp_path / "cur", sim_kernel=KERNEL)
    report = check(str(tmp_path / "nothing"), cur)
    assert report.ok
    assert {r.status for r in report.results} == {"new"}

    bad = copy.deepcopy(KERNEL)
    bad["message_complexity_c"] = 2.0
    cur = write_results(tmp_path / "cur2", sim_kernel=bad)
    report = check(str(tmp_path / "nothing"), cur)
    assert [r.status for r in report.failures] == ["bound-violation"]


def test_unknown_benchmark_gets_informational_row(tmp_path):
    base = write_results(tmp_path / "base", mystery={"whatever": 1})
    cur = write_results(tmp_path / "cur", mystery={"whatever": 2})
    report = check(base, cur)
    assert report.ok
    assert [r.status for r in report.results] == ["no-spec"]
    assert "no extractor registered" in report.to_markdown()


def test_load_results_ignores_non_bench_files(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "BENCH_sim_kernel.json").write_text(json.dumps(KERNEL))
    (directory / "README.md").write_text("not a result")
    (directory / "notes.json").write_text("{}")
    assert set(load_results(str(directory))) == {"sim_kernel"}
    assert load_results(str(tmp_path / "missing")) == {}


def test_per_metric_threshold_override():
    spec_table = compare(
        {"sim_kernel": KERNEL},
        {"sim_kernel": {**KERNEL, "events_per_sec": 100_000}},
        threshold_pct=50.0,
    )
    assert spec_table.ok  # -33% within the runwide 50%

    tight = MetricSpec(direction="higher", threshold_pct=10.0)
    assert tight.threshold_pct == 10.0
    assert DEFAULT_THRESHOLD_PCT == 25.0


def test_markdown_table_lists_every_judged_metric(tmp_path):
    base, cur = baseline_dirs(tmp_path)
    write_results(
        cur, sim_kernel=KERNEL, chaos_resilience=CHAOS, parallel_engine=PARALLEL
    )
    markdown = check(base, str(cur)).to_markdown()
    for needle in (
        "| benchmark | metric |",
        "events_per_sec",
        "events_processed",
        "message_complexity_c",
        "sync_delay_mean_t",
        "loss=0.2/cao-singhal/rtx_per_cs",
    ):
        assert needle in markdown
