"""Tests for the fast dynamic-maintenance engine (``repro.perf.dynamic``).

The load-bearing property is engine equivalence: the fast engine must be
observably indistinguishable from the reference — same lookup outcomes,
same per-kind message counts, same final protocol state — on any churn
schedule.  Everything else here (arena bookkeeping, memoization, engine
selection) supports that contract.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.idspace import IdSpace
from repro.perf.dynamic import FastSimulatedCrescendo, NodeArena, make_protocol
from repro.simulation.protocol import SimulatedCrescendo
from repro.verify.fuzz import (
    FUZZ_PATHS,
    FuzzConfig,
    bootstrap_network,
    generate_schedule,
    replay,
    schedule_from_json,
)
from repro.verify.oracles import compare_protocols

FIXTURE = Path(__file__).parent / "fixtures" / "fuzz_counterexample.json"


class TestEngineSelection:
    def test_make_protocol_engine_classes(self):
        space = IdSpace(16)
        assert type(make_protocol(space, engine="reference")) is SimulatedCrescendo
        assert isinstance(make_protocol(space, engine="fast"), FastSimulatedCrescendo)
        assert isinstance(make_protocol(space), FastSimulatedCrescendo)

    def test_engine_class_attribute(self):
        space = IdSpace(16)
        assert make_protocol(space, engine="reference").engine == "reference"
        assert make_protocol(space, engine="fast").engine == "fast"

    def test_unknown_mode_rejected(self):
        for name in ("turbo", "auto", None):
            with pytest.raises(ValueError, match="unknown engine"):
                make_protocol(IdSpace(16), engine=name)


class TestNodeArena:
    def test_rings_stay_sorted_per_level(self):
        arena = NodeArena()
        for node_id in (50, 10, 30):
            arena.add(node_id, ("a", "x"))
        arena.add(20, ("a", "y"))
        assert arena.ring_members(()) == [10, 20, 30, 50]
        assert arena.ring_members(("a",)) == [10, 20, 30, 50]
        assert arena.ring_members(("a", "x")) == [10, 30, 50]
        assert arena.ring_members(("a", "y")) == [20]

    def test_crash_drops_live_but_keeps_insertion_order(self):
        arena = NodeArena()
        for node_id in (5, 9, 3):
            arena.add(node_id, ("a",))
        arena.crash(9)
        assert arena.ring_members(("a",)) == [3, 5]
        assert list(arena.ordered_members(("a",))) == [5, 9, 3]
        arena.remove(9, ("a",))
        assert list(arena.ordered_members(("a",))) == [5, 3]

    def test_rejoin_appends_at_end_of_insertion_order(self):
        # Mirrors Hierarchy.members: a purged node that rejoins is a new
        # arrival, so the bootstrap directory lists it last.
        arena = NodeArena()
        for node_id in (1, 2, 3):
            arena.add(node_id, ("a",))
        arena.crash(2)
        arena.remove(2, ("a",))
        arena.add(2, ("a",))
        assert list(arena.ordered_members(("a",))) == [1, 3, 2]


def _twin_networks(size=48, seed=3):
    """The same bootstrap joined into both engines, in the same order."""
    rng = random.Random(f"twin:{seed}")
    space = IdSpace(32)
    ids = space.random_ids(size, rng)
    paths = [FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))] for _ in ids]
    nets = []
    for engine in ("reference", "fast"):
        net = make_protocol(IdSpace(32), engine=engine)
        for node_id, path in zip(ids, paths):
            net.join(node_id, path)
        nets.append(net)
    return nets


def _ring_state(net):
    return {
        node_id: {
            depth: (ring.predecessor, list(ring.successors), sorted(ring.fingers))
            for depth, ring in node.rings.items()
        }
        for node_id, node in net.nodes.items()
        if node.alive
    }


#: Every ring prefix of ``FUZZ_PATHS`` plus one that holds no node.
PREFIXES = sorted({path[:depth] for path in FUZZ_PATHS for depth in range(3)})
PREFIXES.append(("z",))

#: The base methods the fast engine answers its own way; every other
#: protocol routine exists once, in ``SimulatedCrescendo``.
FAST_PRIMITIVES = {
    "_membership_added", "_membership_crashed", "_membership_revived",
    "_membership_removed", "_touch", "_observe_live", "_stabilize_ring",
    "live_view", "live_members", "_ring_has_live_peer", "_first_live_member",
    "_finger_hints", "_best_hop",
    "static_links", "oracle_links",
}


def test_fast_engine_redefines_only_its_primitives():
    redefined = {
        name
        for name, value in vars(FastSimulatedCrescendo).items()
        if callable(value)
        and not name.startswith("__")
        and hasattr(SimulatedCrescendo, name)
    }
    assert redefined == FAST_PRIMITIVES


def _primitive_answers(net, keys):
    """Every membership and next-hop answer the two engines compute apart."""
    live = list(net.live_view())
    out = {}
    for prefix in PREFIXES:
        out[prefix] = net._first_live_member(prefix)
        out[prefix, "live"] = list(net.live_members(prefix))
        for node_id in live:
            has_peer = net._ring_has_live_peer(prefix, node_id)
            out[prefix, node_id] = (
                has_peer,
                net._first_live_member(prefix, exclude=node_id),
                net._nearest_live_peer(prefix, node_id) if has_peer else None,
            )
    for node_id in live:
        for depth in range(net.nodes[node_id].leaf_depth + 1):
            for key in keys:
                hop = net._best_hop(node_id, depth, key, None)
                out[node_id, depth, key] = (
                    hop,
                    net._best_hop(node_id, depth, key, hop),
                )
    return out


class TestMembershipPrimitives:
    """The primitives the fast engine answers from its arena and sorted
    contacts agree with the reference's scans after every event."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_engines_answer_alike_through_churn(self, seed):
        ref, fast = _twin_networks(size=32, seed=seed)
        rng = random.Random(f"primitives:{seed}")
        departed = []
        for _ in range(60):
            live = list(ref.live_view())
            suspended = ref.suspended_ids()
            op = rng.choice(
                ["join", "rejoin", "leave", "crash", "suspend", "revive",
                 "stabilize"]
            )
            if op == "rejoin" and departed:
                node_id = departed.pop(rng.randrange(len(departed)))
            else:
                node_id = ref.space.random_id(rng)
            victim = live[rng.randrange(len(live))]
            path = FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))]
            for net in (ref, fast):
                if op in ("join", "rejoin") and node_id not in net.nodes:
                    net.join(node_id, path)
                elif op == "leave" and len(live) > 3:
                    net.leave(victim)
                elif op == "crash" and len(live) > 3:
                    net.crash(victim)
                elif op == "suspend" and len(live) > 3:
                    net.suspend(victim)
                elif op == "revive" and suspended:
                    net.revive(suspended[0])
                elif op == "stabilize":
                    net.stabilize()
            if op in ("leave", "crash") and len(live) > 3:
                departed.append(victim)
            keys = [ref.space.random_id(rng) for _ in range(3)]
            assert _primitive_answers(ref, keys) == _primitive_answers(
                fast, keys
            ), op


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_schedules_equivalent(self, seed):
        config = FuzzConfig(seed=seed, events=90, population=48, checkpoints=3)
        schedule = generate_schedule(config)
        comparison = compare_protocols(
            lambda engine: bootstrap_network(config, engine=engine), schedule
        )
        assert comparison.equivalent, comparison.violations[:5]

    def test_batched_stabilization_round_matches_reference_under_damage(self):
        # Satellite property: one stabilize() round after crashes must be
        # message-count- and state-equivalent between the engines.
        ref, fast = _twin_networks()
        for net in (ref, fast):
            net.stabilize_to_convergence()
        victims = sorted(n for n in ref.nodes)[::7][:5]
        for net in (ref, fast):
            for victim in victims:
                net.crash(victim)
            net.msgs.stats.reset()
            net.stabilize()
        assert dict(ref.msgs.stats.counts) == dict(fast.msgs.stats.counts)
        assert _ring_state(ref) == _ring_state(fast)
        assert ref.static_links() == fast.static_links()

    def test_lookup_outcomes_and_messages_match(self):
        ref, fast = _twin_networks()
        for net in (ref, fast):
            net.stabilize_to_convergence()
            net.msgs.stats.reset()
        live = list(ref.live_view())
        rng = random.Random(9)
        for _ in range(40):
            src = live[rng.randrange(len(live))]
            key = ref.space.random_id(rng)
            ref_route = ref.lookup(src, key)
            fast_route = fast.lookup(src, key)
            assert ref_route.path == fast_route.path
            assert ref_route.success == fast_route.success
        assert dict(ref.msgs.stats.counts) == dict(fast.msgs.stats.counts)

    def test_checked_in_counterexample_replays_identically(self):
        # One lockstep replay: the fixture's violations reproduce, and the
        # reference engine agrees with the fast one on every observable.
        config, events, expect_violations = schedule_from_json(
            FIXTURE.read_text()
        )
        assert expect_violations
        report = replay(config, events)
        found = sorted((v.check, v.family) for v in report.violations)
        assert found == [
            ("canon-merge", "crescendo"),
            ("ring-level-successor", "crescendo"),
        ]


class TestMemoization:
    def _settled(self, size=48):
        net = make_protocol(IdSpace(32), engine="fast")
        rng = random.Random("memo")
        for node_id in net.space.random_ids(size, rng):
            net.join(node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))])
        net.stabilize_to_convergence()
        while True:
            epoch = net._epoch
            net.stabilize()
            if net._epoch == epoch:
                return net

    def test_quiescent_rounds_replay_identical_counts(self):
        net = self._settled()
        net.msgs.stats.reset()
        first = net.stabilize()
        counts = dict(net.msgs.stats.counts)
        net.msgs.stats.reset()
        second = net.stabilize()
        assert first == second
        assert counts == dict(net.msgs.stats.counts)
        live_levels = sum(
            node.leaf_depth + 1 for node in net.nodes.values() if node.alive
        )
        assert len(net._stab_memo) == live_levels

    def test_writes_invalidate_dependent_memos(self):
        net = self._settled()
        net.stabilize()
        before = len(net._stab_memo)
        assert before > 0
        victim = next(iter(net.live_view()))
        net.crash(victim)
        assert len(net._stab_memo) < before
        # And the round after the crash still converges on the oracle.
        net.stabilize_to_convergence()

    def test_purged_nodes_leave_no_memo_entries(self):
        net = self._settled()
        net.stabilize()
        victim = next(iter(net.live_view()))
        net.crash(victim)
        net.stabilize()  # purges the crashed node
        assert victim not in net.nodes
        assert not any(key[0] == victim for key in net._stab_memo)
        assert victim not in net._stab_deps


class TestLiveViewCache:
    def test_cache_invalidated_on_membership_changes(self):
        for engine in ("reference", "fast"):
            net = make_protocol(IdSpace(32), engine=engine)
            rng = random.Random(4)
            ids = net.space.random_ids(8, rng)
            for node_id in ids:
                net.join(node_id, ("a", "x"))
            assert list(net.live_view()) == sorted(ids)
            net.crash(ids[0])
            assert list(net.live_view()) == sorted(ids[1:])
            newcomer = max(ids) + 1
            net.join(newcomer, ("a", "x"))
            assert newcomer in net.live_view()

    def test_live_set_is_preseeded(self):
        net = make_protocol(IdSpace(32), engine="fast")
        rng = random.Random(5)
        for node_id in net.space.random_ids(6, rng):
            net.join(node_id, ("a", "x"))
        live = net.live_set()
        assert live.sorted_ids == list(net.live_view())
