"""Tests for the churn workload driver: an RNG-drawn churn mix replayed
as an explicit event list through ``run_schedule``."""

from __future__ import annotations

import random

from repro import IdSpace
from repro.simulation.churn import Event, run_schedule
from repro.simulation.protocol import SimulatedCrescendo
from repro.verify.fuzz import check_protocol_state

PATHS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]


def seeded_net(size=80, seed=0):
    rng = random.Random(seed)
    space = IdSpace(32)
    net = SimulatedCrescendo(space)
    for node_id in space.random_ids(size, rng):
        net.join(node_id, PATHS[rng.randrange(len(PATHS))])
    return net, rng


def churn_events(
    net, rng, joins=50, leaves=25, crashes=10, lookups=200, stabilize_rounds=5
):
    """Joins, leaves, crashes and lookups shuffled uniformly, stabilize
    rounds evenly spaced, and a closing checkpoint."""
    timed = []
    taken = set(net.nodes)
    for i in range(joins):
        node = net.space.random_id(rng)
        while node in taken:
            node = net.space.random_id(rng)
        taken.add(node)
        event = Event("join", node=node, path=PATHS[rng.randrange(len(PATHS))])
        timed.append((rng.random(), i, event))
    for kind, count in (("leave", leaves), ("crash", crashes)):
        timed.extend(
            (rng.random(), i, Event(kind, rank=rng.randrange(1 << 16)))
            for i in range(count)
        )
    timed.extend(
        (
            rng.random(),
            i,
            Event(
                "lookup",
                rank=rng.randrange(1 << 16),
                key=net.space.random_id(rng),
            ),
        )
        for i in range(lookups)
    )
    timed.extend(
        ((i + 1) / (stabilize_rounds + 1), i, Event("stabilize"))
        for i in range(stabilize_rounds)
    )
    timed.sort(key=lambda item: item[:2])
    return [event for _, _, event in timed] + [Event("checkpoint")]


class TestRunChurn:
    def test_population_changes(self):
        net, rng = seeded_net()
        events = churn_events(net, rng, joins=30, leaves=10, crashes=5, lookups=50)
        report = run_schedule(net, events)
        assert (report.joins, report.leaves, report.crashes) == (30, 10, 5)
        assert report.final_population == 80 + 30 - 10 - 5

    def test_converges_to_oracle(self):
        net, rng = seeded_net(seed=1)
        report = run_schedule(net, churn_events(net, rng))
        assert report.unconverged_checkpoints == 0
        assert report.checkpoint_rounds[-1] >= 0
        # Every ring matches the static construction over the live nodes.
        assert check_protocol_state(net) == []

    def test_high_delivery_under_churn(self):
        net, rng = seeded_net(seed=2)
        events = churn_events(net, rng, joins=40, leaves=20, crashes=10, lookups=150)
        report = run_schedule(net, events)
        assert report.lookups_attempted > 100
        assert report.lookups_delivered / report.lookups_attempted > 0.9

    def test_message_accounting(self):
        net, rng = seeded_net(seed=3)
        report = run_schedule(net, churn_events(net, rng))
        for kind in ("join_lookup", "leave_notify", "ping", "lookup"):
            assert report.messages.get(kind, 0) > 0, kind
