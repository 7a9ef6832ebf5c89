"""Tests for the exhaustive interleaving explorer.

These are the strongest correctness statements in the suite: for the
configurations below, the paper's Theorems 1-3 hold on *every* possible
message/timer interleaving, not just sampled schedules.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError
from repro.verify.explore import (
    ExplorationResult,
    FaultBudget,
    build_world,
    explore,
)


def test_single_site_self_quorum():
    result = explore([{0}], [2])
    assert result.complete
    assert result.terminal_states >= 1


def test_two_requesters_shared_arbiter_all_interleavings():
    result = explore([{2}, {2}, {2}], [1, 1, 0])
    assert result.complete
    assert result.states_explored > 50  # genuinely many distinct states


def test_three_requesters_shared_arbiter():
    result = explore([{3}, {3}, {3}, {3}], [1, 1, 1, 0], max_states=200_000)
    assert result.complete


def test_two_sites_mutual_arbiters():
    """Both sites arbitrate for each other: the inquire/yield machinery is
    fully exercised across every interleaving."""
    result = explore([{0, 1}, {0, 1}], max_states=200_000)
    assert result.complete


def test_back_to_back_requests_every_interleaving():
    result = explore([{2}, {2}, {2}], [2, 2, 0], max_states=300_000)
    assert result.complete


def test_no_transfer_variant_also_safe():
    result = explore(
        [{0, 1}, {0, 1}], enable_transfer=False, max_states=200_000
    )
    assert result.complete


def test_state_budget_is_exact():
    """``max_states`` is a hard, exact cap: the search expands exactly
    that many distinct states before giving up (the first-generation
    explorer overshot by one — the check ran after the increment)."""
    result = explore([{0, 1}, {0, 1}], max_states=50)
    assert not result.complete
    assert result.states_explored == 50


def test_build_world_validates_request_vector():
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        build_world([{0}], requests_per_site=[1, 2])


@pytest.mark.parametrize("crashes", [0, 1], ids=["plain", "fault-tolerant"])
def test_clone_site_copies_every_declared_field(crashes):
    """``_clone_site`` mirrors site state field by field; a slot added to
    (or removed from) any class up the MRO must fail here, not deep in a
    search. Checked on ``_ExploreSite`` and ``_ExploreFTSite``."""
    from repro.verify.explore.world import _clone_site

    world = build_world([{0, 1}, {0, 1}], fault_budget=FaultBudget(crashes=crashes))
    site = world.sites[0]
    clone = _clone_site(site, world.fake_sim, world.listener)
    slots = [
        name
        for cls in type(site).__mro__
        for name in getattr(cls, "__slots__", ())
    ]
    assert "site_id" in slots and "arbiter" in slots  # the walk sees the bases
    unset = [name for name in slots if not hasattr(clone, name)]
    assert not unset, f"_clone_site leaves slots unset: {unset}"
    # Unslotted classes in the MRO keep their fields in __dict__; a name
    # only the clone has is a copy of a slot that no longer exists.
    assert vars(clone).keys() == vars(site).keys()


def test_explorer_catches_seeded_deadlock():
    """Sanity for the harness itself: a site whose quorum nobody serves
    (an arbiter that is never part of the world... simulated by a quorum
    pointing at a site that never grants because it never receives the
    request channel's delivery) must be reported.

    We simulate a broken protocol by giving site 0 a quorum containing a
    site that is in the world but to which we never deliver anything —
    impossible via explore() itself (it delivers everything), so instead
    we check the terminal checker directly on a hand-built world.
    """
    world = build_world([{1}, {1}], requests_per_site=[1, 0])
    # Don't run anything: the pending request makes this non-terminal
    # state fail the terminal check.
    from repro.verify.explore import _check_terminal

    with pytest.raises(DeadlockError):
        _check_terminal(world, expected=1)


def test_two_requesters_two_arbiters():
    """The smallest topology with cross-arbiter forwarding chains (the
    shape both machine-found paper gaps live in)."""
    result = explore([{2, 3}, {2, 3}, {2}, {3}], [1, 1, 0, 0],
                     max_states=300_000)
    assert result.complete


import os


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW"),
    reason="~40s exhaustive exploration; set REPRO_SLOW=1 to run",
)
def test_two_requesters_two_arbiters_two_requests():
    result = explore([{2, 3}, {2, 3}, {2}, {3}], [2, 1, 0, 0],
                     max_states=500_000)
    assert result.complete
