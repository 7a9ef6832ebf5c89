"""compare.py verdicts."""

import compare


def row(value, lo=None, hi=None):
    return {"value": value, "lo": value if lo is None else lo,
            "hi": value if hi is None else hi}


def test_within_the_bound_is_same_and_beyond_it_is_worse():
    a = row(100.0, 99.0, 101.0)
    assert compare.verdict(a, row(105.0, 104.0, 106.0), "lower", 0.10, False)[0] == "same"
    what, change = compare.verdict(a, row(115.0, 114.0, 116.0), "lower", 0.10, False)
    assert what == "worse" and abs(change - 0.15) < 1e-12
    # direction: for a higher-is-better metric a drop is the regression
    assert compare.verdict(a, row(85.0, 84.0, 86.0), "higher", 0.10, False)[0] == "worse"
    assert compare.verdict(a, row(115.0, 114.0, 116.0), "higher", 0.10, False)[0] == "better"


def test_better_needs_to_clear_the_parents_own_spread():
    a = row(100.0, 90.0, 108.0)  # rests on a range of 18, inside the 25% bound
    assert compare.verdict(a, row(85.0, 84.0, 86.0), "lower", 0.25, False)[0] == "same"
    assert compare.verdict(a, row(60.0, 59.0, 61.0), "lower", 0.25, False)[0] == "better"


def test_noisy_parent_with_overlapping_runs_is_unresolved_not_same():
    a = row(100.0, 90.0, 115.0)  # rests on a 25% range, bound 10%
    assert compare.verdict(a, row(104.0, 95.0, 110.0), "lower", 0.10, False)[0] == "unresolved"
    # every run of the change clear of every run of the parent: resolved
    assert compare.verdict(a, row(140.0, 135.0, 150.0), "lower", 0.10, False)[0] == "worse"
    assert compare.verdict(a, row(60.0, 55.0, 65.0), "lower", 0.10, False)[0] == "better"


def test_exact_metrics_tolerate_nothing():
    a = row(69.2107)
    assert compare.verdict(a, row(69.2107), "lower", 0.10, True)[0] == "same"
    assert compare.verdict(a, row(69.2108), "lower", 0.10, True)[0] == "worse"
    assert compare.verdict(a, row(69.2106), "lower", 0.10, True)[0] == "better"


def test_failed_ops_appearing_from_zero_is_worse():
    what, change = compare.verdict(row(0.0), row(0.001), "lower", 0.0, False)
    assert what == "worse" and change == float("inf")
    assert compare.verdict(row(0.0), row(0.0), "lower", 0.0, False)[0] == "same"


def _ledger(ops_per_s, wait_p50, failed=0.0):
    def cell():
        e2e = {m.name: row(1.0) for m in compare.METRICS}
        e2e["ops_per_s"] = row(ops_per_s, ops_per_s * 0.99, ops_per_s * 1.01)
        e2e["wait_p50"] = row(wait_p50)
        e2e["failed_op_share"] = row(failed)
        return {"end_to_end": e2e}

    return {"seed": 1, "commit": "x", "workloads": {
        "mutex_sim_heavy": cell(), "mutex_udp_inproc": cell()}}


def test_compare_applies_the_exact_rule_on_simulated_workloads_only():
    rows = compare.compare(_ledger(1000.0, 10.0), _ledger(1000.0, 10.5))
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("mutex_sim_heavy", "wait_p50")] == "worse"    # exact
    assert verdicts[("mutex_udp_inproc", "wait_p50")] == "same"     # 5% < 10%
    assert verdicts[("mutex_sim_heavy", "ops_per_s")] == "same"


def test_main_exit_status(tmp_path, capsys):
    import json

    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(_ledger(1000.0, 10.0)))
    b.write_text(json.dumps(_ledger(1010.0, 10.0)))
    c.write_text(json.dumps(_ledger(700.0, 10.0, failed=0.01)))
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "failed_op_share" in out
