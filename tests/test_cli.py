"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, _delay_model, build_parser, main
from repro.sim.network import ConstantDelay, ExponentialDelay, UniformDelay


def test_delay_model_parsing():
    assert isinstance(_delay_model("constant"), ConstantDelay)
    assert _delay_model("constant:2.5").mean == 2.5
    model = _delay_model("uniform:1:3")
    assert isinstance(model, UniformDelay) and model.mean == 2.0
    assert isinstance(_delay_model("exp:1.5"), ExponentialDelay)
    with pytest.raises(Exception):
        _delay_model("warp")


def test_parser_defaults():
    args = build_parser().parse_args(["run"])
    assert args.algorithm == "cao-singhal"
    assert args.sites == 9


def test_run_command_prints_summary(capsys):
    code = main(
        [
            "run",
            "-a",
            "cao-singhal",
            "-n",
            "4",
            "-q",
            "grid",
            "--saturate",
            "3",
            "--delay",
            "constant:1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cao-singhal" in out
    assert "messages/CS" in out


def test_run_command_poisson(capsys):
    code = main(
        ["run", "-a", "ricart-agrawala", "-n", "3", "--poisson", "0.05",
         "--horizon", "100"]
    )
    assert code == 0
    assert "ricart-agrawala" in capsys.readouterr().out


def test_run_command_with_fault_flags(capsys):
    code = main(
        ["run", "-a", "cao-singhal", "--saturate", "3", "--delay",
         "constant:1", "--loss", "0.2", "--dup", "0.05", "--reorder", "0.1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    # Fault flags auto-enable the reliable layer and surface its counters.
    assert "channel" in out
    assert "retransmitted" in out


def test_run_command_with_fault_plan(capsys):
    code = main(
        ["run", "-a", "maekawa", "--saturate", "3", "--delay", "constant:1",
         "--fault-plan", "loss-burst", "--chaos-seed", "5"]
    )
    assert code == 0
    assert "maekawa" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "trace"])
def test_crash_preset_rejected_without_failure_handling(command, capsys):
    # No registry algorithm survives a crash: argparse refuses the only
    # preset with crash cycles instead of a traceback mid-run.
    with pytest.raises(SystemExit) as exc:
        main([command, "-a", "cao-singhal", "--saturate", "2",
              "--fault-plan", "churn"])
    assert exc.value.code == 2
    assert "invalid choice: 'churn'" in capsys.readouterr().err


def test_locks_run_keeps_crash_preset():
    args = build_parser().parse_args(["locks", "run", "--fault-plan", "churn"])
    assert args.fault_plan == "churn"


def test_clean_run_keeps_reliable_layer_off(capsys):
    code = main(
        ["run", "-a", "cao-singhal", "--saturate", "3", "--delay", "constant:1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "channel" not in out


def test_experiment_ids_registered():
    for exp_id in ("E1", "E2", "E3", "E4", "E5", "E6", "E7a", "E7b", "E8",
                   "E9", "E13", "E14", "E15", "E16"):
        assert exp_id in EXPERIMENTS
    from repro import experiments

    assert all(callable(getattr(experiments, name)) for name in EXPERIMENTS.values())


def test_experiment_command_csv(capsys):
    code = main(["experiment", "E6", "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("N,")


def test_invalid_algorithm_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "-a", "not-an-algorithm"])


def test_trace_command_exports_monitored_trace(tmp_path, capsys):
    out_path = tmp_path / "run.jsonl"
    code = main(
        [
            "trace",
            "-a",
            "cao-singhal",
            "-n",
            "9",
            "--saturate",
            "2",
            "--seed",
            "1",
            "-o",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "monitor: all invariants held" in out
    assert "handoff sync delay" in out

    from repro.obs.export import import_jsonl

    trace_file = import_jsonl(str(out_path))
    assert len(trace_file) > 0
    assert trace_file.meta["algorithm"] == "cao-singhal"
    assert trace_file.meta["monitor"]["violations"] == []


def test_run_profile_prints_event_loop_table(capsys):
    code = main(
        ["run", "-a", "cao-singhal", "-n", "4", "--saturate", "2", "--profile"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "event-loop profile" in out
    assert "cs-hold" in out


def test_run_profile_rejects_multiple_trials():
    with pytest.raises(SystemExit):
        main(["run", "-a", "cao-singhal", "--trials", "2", "--profile"])


def _write_bench(directory, events_per_sec):
    import json

    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "benchmark": "sim_kernel",
        "events_processed": 63_507,
        "events_per_sec": events_per_sec,
        "message_complexity_c": 4.5,
    }
    (directory / "BENCH_sim_kernel.json").write_text(json.dumps(payload))


def test_regress_command_passes_on_identical_results(tmp_path, capsys):
    _write_bench(tmp_path / "base", 150_000)
    _write_bench(tmp_path / "cur", 150_000)
    code = main(
        [
            "regress",
            "--baseline",
            str(tmp_path / "base"),
            "--current",
            str(tmp_path / "cur"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "**PASS**" in out


def test_regress_command_gate_bites_on_slowdown(tmp_path, capsys):
    _write_bench(tmp_path / "base", 150_000)
    _write_bench(tmp_path / "cur", 105_000)  # -30%, past the 25% floor
    report_path = tmp_path / "report.md"
    code = main(
        [
            "regress",
            "--baseline",
            str(tmp_path / "base"),
            "--current",
            str(tmp_path / "cur"),
            "--threshold-pct",
            "25",
            "--report",
            str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "`sim_kernel:events_per_sec`" in out
    assert "**regression**" in report_path.read_text()


def test_regress_command_errors_without_results(tmp_path):
    code = main(
        [
            "regress",
            "--baseline",
            str(tmp_path / "nope"),
            "--current",
            str(tmp_path / "nothing"),
        ]
    )
    assert code == 2


def test_explore_command_clean_complete(capsys):
    code = main(
        ["explore", "--quorums", "2;2;2", "--requests", "1,1,0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "complete, no violation" in out


def test_explore_command_budget_exhausted_exit_code(capsys):
    code = main(
        [
            "explore", "--quorums", "2;2;2", "--requests", "1,1,0",
            "--max-states", "30",
        ]
    )
    out = capsys.readouterr().out
    assert code == 3
    assert "explored 30 states" in out
    assert "budget exhausted" in out


def test_explore_command_with_fault_budget(capsys):
    code = main(
        [
            "explore", "--quorums", "2;2;2", "--requests", "1,1,0",
            "--crashes", "1", "--recoveries", "1",
            "--max-states", "500000",
        ]
    )
    assert code == 0
    assert "no violation" in capsys.readouterr().out


def test_explore_command_registered_quorum_construction(capsys):
    code = main(
        [
            "explore", "--quorum", "majority", "-n", "3",
            "--requests", "1,1,0",
        ]
    )
    assert code == 0


def test_explore_command_counterexample_export(tmp_path, capsys, monkeypatch):
    """A protocol mutant drives the full CLI pipeline: find, shrink,
    export, and the exported file replays to the monitor verdict."""
    from _explore_mutants import PaperLiteralSite

    import repro.verify.explore as ex

    monkeypatch.setattr(
        ex,
        "_ExploreSite",
        type("CliMutant", (ex._ExploreSite, PaperLiteralSite), {}),
    )
    out_path = tmp_path / "cex.jsonl"
    code = main(
        [
            "explore", "--quorums", "3,4;3,4;3,4;3;4",
            "--requests", "1,1,1,0,0", "--max-states", "3000000",
            "--out", str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample: DeadlockError" in out
    violations = ex.replay_counterexample(str(out_path))
    assert [v.invariant for v in violations] == ["deadlock"]


def test_net_run_parser_defaults_and_alias():
    args = build_parser().parse_args(["net", "run", "--algo", "cao"])
    assert args.command == "net"
    assert args.net_command == "run"
    assert args.algorithm == "cao-singhal"  # alias resolved
    assert args.spawn == "process"
    assert args.reliable is True


def test_net_run_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["net", "run", "--algo", "not-real"])


def test_net_run_command_inproc(tmp_path, capsys):
    code = main(
        [
            "net", "run", "--algo", "cao", "--sites", "3",
            "--requests", "2", "--seed", "1", "--spawn", "inproc",
            "--run-dir", str(tmp_path / "run"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 CS completions" in out
    assert "monitor verdict: clean" in out
    assert (tmp_path / "run" / "merged.jsonl").exists()


def test_net_run_command_json_output(tmp_path, capsys):
    import json

    code = main(
        [
            "net", "run", "-a", "ricart-agrawala", "--sites", "3",
            "--requests", "1", "--spawn", "inproc", "--json",
            "--run-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completed"] == 3
    assert report["violations"] == []
    assert report["message_complexity_c"] is None  # non-quorum algorithm


def test_trace_help_loads_no_experiment_module_and_no_process_pool(fresh_python):
    # Experiments resolve at dispatch through the lazy package, so a
    # subcommand that runs none of them pays for none of them.
    out = fresh_python(
        "import sys\n"
        "from repro.cli import main\n"
        "try:\n"
        "    main(['trace', '--help'])\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0\n"
        "loaded = [m for m in ('repro.experiments.table1', 'multiprocessing')"
        " if m in sys.modules]\n"
        "print('LOADED', loaded)\n"
    )
    assert out.splitlines()[-1] == "LOADED []"
