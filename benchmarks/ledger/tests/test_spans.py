"""Span self-time arithmetic, layer attribution and sampling."""

import time

import pytest

import spans


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_duration_minus_children_and_sums_to_the_root():
    rec = spans.Recorder()
    rec.active = True
    leaf = rec.wrap(lambda: _busy(0.004), "core.leaf")
    mid = rec.wrap(lambda: (_busy(0.002), leaf(), leaf()), "sim.transport.mid")
    root = rec.wrap(lambda: (_busy(0.001), mid()), "sim.root")
    root()
    assert rec.calls == {"core.leaf": 2, "sim.transport.mid": 1, "sim.root": 1}
    assert rec.total_s["core.leaf"] == pytest.approx(0.008, abs=0.002)
    assert rec.self_s["sim.transport.mid"] == pytest.approx(0.002, abs=0.001)
    assert rec.self_s["sim.root"] == pytest.approx(0.001, abs=0.001)
    # the invariant the run-phase shares rest on
    assert sum(rec.self_s.values()) == pytest.approx(rec.total_s["sim.root"], rel=1e-9)
    assert rec.total_s["sim.transport.mid"] == pytest.approx(
        rec.self_s["sim.transport.mid"] + rec.total_s["core.leaf"], rel=1e-9
    )


def test_wrapper_cost_is_kept_out_of_both_spans():
    rec = spans.Recorder(inside_s=0.001, outside_s=0.002)
    rec.active = True
    leaf = rec.wrap(lambda: None, "core.leaf")
    root = rec.wrap(lambda: [leaf() for _ in range(10)], "sim.root")
    root()
    # each leaf call hands 1 ms back from its own span and 2 ms from its parent's
    assert rec.self_s["core.leaf"] == pytest.approx(-0.010, abs=0.001)
    assert rec.self_s["sim.root"] == pytest.approx(-0.021, abs=0.001)


def test_inactive_recorder_records_nothing_and_an_exception_closes_the_span():
    rec = spans.Recorder()
    wrapped = rec.wrap(lambda: 1 / 0, "core.boom")
    with pytest.raises(ZeroDivisionError):
        wrapped()
    assert not rec.calls
    rec.active = True
    with pytest.raises(ZeroDivisionError):
        wrapped()
    assert rec.calls["core.boom"] == 1 and rec.stack == []


def test_layers_follow_from_names():
    assert spans.layer_of("sim.event.EventQueue.push") == "sim"
    assert spans.layer_of("sim.transport.ReliableTransport.send") == "transport"
    assert spans.layer_of("mutex.base.MutexSite._leave_cs") == "core"
    assert spans.layer_of("locks.frontend.ShardFrontEnd.enqueue") == "locks"
    assert spans.layer_of("asyncio.events.Handle._run") == "runtime"


def test_layer_shares_are_net_of_the_tracer_and_sum_to_one():
    shares = spans.layer_shares(
        {"sim.a": 0.3, "core.b": 0.2, "sim.transport.c": 0.1}, 1.0, 0.2
    )
    assert shares["sim"] == pytest.approx(0.3 / 0.8)
    assert shares["runtime"] == pytest.approx(0.2 / 0.8)
    assert shares["tracer"] == pytest.approx(0.2)
    assert sum(shares[layer] for layer in spans.RUN_LAYERS) == pytest.approx(1.0)


def test_window_tables_are_differences_between_marks():
    rec = spans.Recorder()
    rec.active = True
    work = rec.wrap(lambda: _busy(0.001), "core.work")
    work()  # set-up: before the window
    rec.window_open = rec.mark()
    work()
    work()
    rec.window_close = rec.mark()
    work()  # verification: after it
    assert rec.window_calls() == {"core.work": 2}
    assert rec.window_self()["core.work"] == pytest.approx(0.002, abs=0.001)
    assert rec.calls["core.work"] == 4


def test_a_sampled_op_keeps_its_whole_call_tree_with_parents():
    rec = spans.Recorder()
    rec.active = True
    inner = rec.wrap(lambda: None, "sim.inner")
    outer = rec.wrap(
        lambda tag: inner(), "core.outer",
        probe=lambda r, args: args[0] if args[0] == "keep" else None,
    )
    outer("skip")
    outer("keep")
    rows = rec.sampled_spans(origin=0.0)
    assert [(r["name"], r["parent"], r["op_id"]) for r in rows] == [
        ("core.outer", None, "keep"), ("sim.inner", 0, "keep"),
    ]
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] <= rows[0]["end"]
    assert rec.op is None and rec.parent is None


def test_a_timer_helper_is_named_after_the_action_it_runs():
    rec = spans.Recorder()

    class Site:
        def fire(self, action):
            action()

        def leave(self):
            pass

    Site.fire.__module__ = "repro.sim.node"
    Site.leave.__module__ = "repro.mutex.base"
    site = Site()
    # a core action behind a sim helper gets its own (core) span ...
    wrapped = rec.trampoline(site.fire, (site.leave,), "sim")
    assert wrapped is not site.fire
    # ... a callback of the calling layer is left alone
    assert rec.trampoline(site.fire, (3,), "sim") == site.fire
