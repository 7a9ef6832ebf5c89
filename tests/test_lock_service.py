"""Tests for the sharded lock service: determinism, batching, leases.

The headline contract: a lock-service run is a pure function of its
config — same config + seed gives a byte-identical summary dict,
whether the trial runs inline or fans out through the parallel trial
engine at any worker count — and the front-end optimizations (batching,
coalescing, lease cache) change message *cost*, never outcomes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import islice

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.locks import (
    LockRunConfig,
    LockService,
    ShardView,
    run_lock_configs,
    run_lock_service,
)
from repro.parallel.cache import RunCache
from repro.parallel.pool import TrialPool
from repro.sim.network import FaultModel
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.workload.arrivals import PoissonArrivals


def _config(**overrides) -> LockRunConfig:
    params = dict(
        algorithm="cao-singhal",
        shards=3,
        n_sites=4,
        n_keys=60,
        n_clients=8,
        arrival_rate=2.0,
        n_requests=150,
        key_skew=1.1,
        seed=5,
    )
    params.update(overrides)
    return LockRunConfig(**params)


# -- determinism ------------------------------------------------------------


def test_summary_dict_is_byte_identical_across_runs():
    config = _config()
    first = run_lock_service(config).summary.to_dict()
    second = run_lock_service(dataclasses.replace(config)).summary.to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def _materialized_population(config: LockRunConfig):
    """The up-front ``(time, client, key)`` list the runner used to build
    before the run; streaming must observe exactly this sequence."""
    sim = Simulator(seed=config.seed)
    arrival_rng = sim.rng("locks/arrivals")
    times = list(
        islice(
            PoissonArrivals(config.arrival_rate).times(arrival_rng, math.inf),
            config.n_requests,
        )
    )
    population_rng = sim.rng("locks/population")
    sampler = config.make_sampler()
    population = []
    for when in times:
        client = population_rng.randrange(config.n_clients)
        key = f"lock-{sampler.sample(population_rng)}"
        population.append((when, client, key))
    return population


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(key_skew=1.2),
        dict(key_skew=0.0, n_keys=5000),
        dict(key_skew=0.5, n_sites=5, crashes=2, fault_model=FaultModel(loss=0.02)),
    ],
    ids=["zipf-hot", "uniform-cold", "crash-lossy"],
)
def test_streamed_arrivals_equal_the_materialized_population(overrides, seed):
    config = _config(seed=seed, **overrides)
    result = run_lock_service(config)
    observed = [(r.submit_time, r.client, r.key) for r in result.service.requests]
    assert observed == _materialized_population(config)  # floats by ==


def test_event_heap_holds_what_is_in_flight_not_the_whole_future(monkeypatch):
    depths = []
    run = Simulator.run

    def observed_run(sim, until=None, max_events=None, observer=None):
        run(sim, until, max_events, lambda label, s: depths.append(sim.pending_events()))

    monkeypatch.setattr(Simulator, "run", observed_run)
    result = run_lock_service(_config(n_requests=2000))
    assert result.summary.completed == 2000
    assert len(depths) == result.sim.events_processed
    assert max(depths) < 500  # every arrival was queued up front: >= 2000


def test_trial_pool_workers_do_not_change_summaries():
    configs = [_config(seed=s) for s in range(4)]
    serial = run_lock_configs(configs, workers=1)
    parallel = run_lock_configs(configs, workers=2)
    assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]
    # Summaries come back in input order: seeds in, seeds out.
    assert [s.seed for s in parallel] == [0, 1, 2, 3]


def test_distinct_seeds_give_distinct_schedules():
    a = run_lock_service(_config(seed=0)).summary
    b = run_lock_service(_config(seed=1)).summary
    assert a.to_dict() != b.to_dict()


def test_lock_trials_are_never_cached(tmp_path):
    """The run cache reconstructs records as RunSummary, so lock configs
    must be uncacheable rather than round-trip mis-typed."""
    cache = RunCache(tmp_path)
    config = _config(n_requests=30)
    assert cache.key_for(config) is None
    summaries = TrialPool(workers=1, cache=cache).run_configs([config])
    assert summaries[0].completed == 30
    assert cache.stats.stores == 0


# -- front-end mechanics -----------------------------------------------------


def test_lease_cache_reduces_messages_on_the_same_seed():
    leased = run_lock_service(_config()).summary
    control = run_lock_service(_config(lease=False)).summary
    assert leased.lease_hits > 0
    assert control.lease_hits == 0 and control.lease_window == 0.0
    assert leased.quorum_rounds < control.quorum_rounds
    assert leased.messages_per_acquire < control.messages_per_acquire


def test_batching_and_coalescing_amortize_one_authorization():
    batched = run_lock_service(_config(lease=False)).summary
    serial = run_lock_service(_config(lease=False, batch_max=1)).summary
    # batch_max=1 degenerates to one batch per request; wider batches
    # group queued acquires under the same grant.
    assert serial.batches == 150
    assert batched.batches < serial.batches
    # Either way the queue drains before the CS is released, so backlog
    # beyond the first batch rides the same authorization (coalescing)
    # and the protocol cost in quorum rounds is identical.
    assert serial.coalesced_batches > batched.coalesced_batches > 0
    assert batched.quorum_rounds == serial.quorum_rounds


def test_affinity_routing_beats_client_routing_on_lease_hits():
    """Hot keys keep landing on their home site under affinity routing,
    so the retained authorization actually gets reused."""
    affinity = run_lock_service(_config(key_skew=1.4)).summary
    pinned = run_lock_service(_config(key_skew=1.4, routing="client")).summary
    assert affinity.lease_hit_rate > pinned.lease_hit_rate


def test_summary_accounting_is_consistent():
    summary = run_lock_service(_config()).summary
    assert summary.submitted == summary.completed == 150
    assert summary.violations == 0
    assert summary.batches >= summary.quorum_rounds
    assert sum(summary.shard_loads) == summary.completed
    assert summary.lease_hits + summary.quorum_rounds <= summary.batches + 1
    assert summary.duration > 0
    assert "messages/acquire" in summary.describe()


# -- config validation --------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_keys", 0),
        ("n_clients", 0),
        ("n_requests", 0),
        ("hold_duration", 0.0),
        ("key_skew", -0.5),
        ("arrival_rate", 0.0),
        ("batch_max", 0),
        ("lease_window", -1.0),
        ("routing", "random"),
        ("shards", 0),
    ],
)
def test_invalid_configs_are_rejected(field, value):
    with pytest.raises(ConfigurationError):
        run_lock_service(_config(**{field: value}))


def test_quorum_rejected_for_non_quorum_algorithm():
    with pytest.raises(ConfigurationError):
        run_lock_service(_config(algorithm="lamport", quorum="grid"))


def test_safety_cap_reported_as_configuration_error():
    with pytest.raises(ConfigurationError, match="safety cap"):
        run_lock_service(_config(max_events=50))


# -- shard substrate ----------------------------------------------------------


class _Probe(Node):
    """Minimal node recording what the shard view delivers to it."""

    def __init__(self, site_id):
        super().__init__(site_id)
        self.seen = []

    def on_message(self, src, message):
        self.seen.append((src, message))


def test_shard_views_isolate_id_spaces():
    sim = Simulator(seed=0)
    views = [ShardView(sim, index, n=3) for index in range(2)]
    probes = [[views[s].add_node(_Probe(i)) for i in range(3)] for s in range(2)]
    sim.start()
    # Same local coordinates, different shards: global ids must differ.
    views[0].send(0, 2, "a", "Msg")
    views[1].send(0, 2, "b", "Msg")
    sim.run()
    assert probes[0][2].seen == [(0, "a")]
    assert probes[1][2].seen == [(0, "b")]
    assert all(not p.seen for row in probes for p in row[:2])


def test_shard_view_rejects_out_of_range_and_duplicate_ids():
    sim = Simulator(seed=0)
    view = ShardView(sim, 0, n=2)
    view.add_node(_Probe(0))
    with pytest.raises(SimulationError):
        view.add_node(_Probe(0))
    with pytest.raises(SimulationError):
        view.add_node(_Probe(2))


def test_shard_view_rng_streams_are_shard_qualified():
    sim = Simulator(seed=3)
    a = ShardView(sim, 0, n=2).rng("proto")
    b = ShardView(sim, 1, n=2).rng("proto")
    assert a.random() != b.random()


def test_crash_through_the_port_reaches_the_inner_site():
    sim = Simulator(seed=0)
    view = ShardView(sim, 1, n=2)
    probe = view.add_node(_Probe(0))
    sim.start()
    sim.crash(view.base + 0)
    assert probe.crashed and view.is_crashed(0)
    view.deliver_local(0, "dropped")
    assert probe.seen == []
    sim.recover(view.base + 0)
    assert not probe.crashed


# -- service composition -------------------------------------------------------


def test_service_spans_shards_times_sites_simulator_nodes():
    sim = Simulator(seed=0)
    LockService(sim, shards=3, n_sites=4)
    assert len(sim.nodes) == 12
    assert sorted(sim.nodes) == list(range(12))


def test_cli_locks_run_prints_summary(capsys):
    from repro.cli import main

    code = main(
        [
            "locks", "run", "-a", "cao", "--shards", "2", "-n", "4",
            "--keys", "30", "--clients", "4", "--requests", "40",
            "--zipf", "1.1", "--seed", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "40/40 acquires" in out and "violations 0" in out


def test_cli_locks_run_json(capsys):
    from repro.cli import main

    code = main(
        [
            "locks", "run", "--shards", "2", "-n", "4", "--keys", "30",
            "--requests", "40", "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completed"] == 40 and payload["violations"] == 0


def test_lock_experiments_registered():
    from repro.cli import EXPERIMENTS

    assert "E14" in EXPERIMENTS and "E15" in EXPERIMENTS
