"""Tests for the greedy routing engines (ring, XOR, lookahead)."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.core.routing import (
    Route,
    route,
    route_ring,
    route_ring_lookahead,
    route_xor,
)
from repro.dhts.chord import ChordNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.symphony import SymphonyNetwork

from conftest import make_chord, make_crescendo


class TestRouteObject:
    def test_hops(self):
        r = Route([1, 2, 3], True, 3)
        assert r.hops == 2
        assert r.source == 1
        assert r.terminal == 3

    def test_single_node_path(self):
        r = Route([9], True, 9)
        assert r.hops == 0

    def test_latency_sums_edges(self):
        r = Route([1, 2, 4], True, 4)
        assert r.latency(lambda a, b: b - a) == 3

    def test_edges(self):
        assert Route([1, 2, 3], True, 3).edges() == [(1, 2), (2, 3)]


class TestRingRouting:
    def test_reaches_every_node(self, chord_net):
        rng = random.Random(1)
        ids = chord_net.node_ids
        for _ in range(100):
            a, b = rng.sample(ids, 2)
            r = route_ring(chord_net, a, b)
            assert r.success and r.terminal == b

    def test_never_overshoots(self, chord_net):
        """Remaining clockwise distance strictly decreases along the path."""
        rng = random.Random(2)
        space = chord_net.space
        ids = chord_net.node_ids
        for _ in range(50):
            a, b = rng.sample(ids, 2)
            r = route_ring(chord_net, a, b)
            dists = [space.ring_distance(n, b) for n in r.path]
            assert all(x > y for x, y in zip(dists, dists[1:]))

    def test_key_routes_to_responsible(self, chord_net):
        rng = random.Random(3)
        for _ in range(100):
            key = chord_net.space.random_id(rng)
            src = rng.choice(chord_net.node_ids)
            r = route_ring(chord_net, src, key)
            assert r.success
            assert r.terminal == chord_net.responsible_node(key)

    def test_self_route_is_trivial(self, chord_net):
        node = chord_net.node_ids[0]
        r = route_ring(chord_net, node, node)
        assert r.success and r.hops == 0

    def test_alive_filter_skips_dead(self, chord_net):
        rng = random.Random(4)
        ids = chord_net.node_ids
        alive = set(ids[: len(ids) // 2])
        live = sorted(alive)
        src, dst = live[0], live[-1]
        r = route_ring(chord_net, src, dst, alive=alive)
        assert all(n in alive for n in r.path)

    def test_hops_logarithmic(self, chord_net):
        rng = random.Random(5)
        ids = chord_net.node_ids
        hops = [
            route_ring(chord_net, *rng.sample(ids, 2)).hops for _ in range(200)
        ]
        import math

        assert statistics.mean(hops) <= math.log2(len(ids))


class TestXorRouting:
    @pytest.fixture(scope="class")
    def kad(self):
        rng = random.Random(11)
        space = IdSpace(16)
        ids = space.random_ids(300, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        return KademliaNetwork(space, h, rng).build()

    def test_reaches_every_node(self, kad):
        rng = random.Random(12)
        for _ in range(100):
            a, b = rng.sample(kad.node_ids, 2)
            r = route_xor(kad, a, b)
            assert r.success and r.terminal == b

    def test_xor_distance_strictly_decreases(self, kad):
        rng = random.Random(13)
        space = kad.space
        for _ in range(50):
            a, b = rng.sample(kad.node_ids, 2)
            r = route_xor(kad, a, b)
            dists = [space.xor_distance(n, b) for n in r.path]
            assert all(x > y for x, y in zip(dists, dists[1:]))

    def test_key_routes_into_smallest_bucket(self, kad):
        """Greedy key lookups land in the key's smallest populated bucket.

        Pure greedy forwarding may stop one node short of the globally
        XOR-closest (its last bucket holds one arbitrary contact); it must
        still reach a node sharing the closest node's top distance bit.
        """
        rng = random.Random(14)
        space = kad.space
        for _ in range(100):
            key = space.random_id(rng)
            src = rng.choice(kad.node_ids)
            r = route_xor(kad, src, key)
            best = min(space.xor_distance(n, key) for n in kad.node_ids)
            got = space.xor_distance(r.terminal, key)
            assert got.bit_length() <= best.bit_length() + 1

    def test_iterative_lookup_finds_global_closest(self, kad):
        """Kademlia's FIND_NODE shortlist lookup is exact for keys."""
        from repro.dhts.kademlia import find_closest

        rng = random.Random(15)
        space = kad.space
        for _ in range(100):
            key = space.random_id(rng)
            src = rng.choice(kad.node_ids)
            found = find_closest(kad, src, key)
            best = min(space.xor_distance(n, key) for n in kad.node_ids)
            assert space.xor_distance(found, key) == best


class TestLookahead:
    @pytest.fixture(scope="class")
    def symphony(self):
        rng = random.Random(21)
        space = IdSpace(32)
        ids = space.random_ids(600, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        return SymphonyNetwork(space, h, rng).build()

    def test_lookahead_delivers(self, symphony):
        rng = random.Random(22)
        for _ in range(80):
            a, b = rng.sample(symphony.node_ids, 2)
            r = route_ring_lookahead(symphony, a, b)
            assert r.success and r.terminal == b

    def test_lookahead_saves_hops_on_average(self, symphony):
        rng = random.Random(23)
        pairs = [rng.sample(symphony.node_ids, 2) for _ in range(150)]
        greedy = statistics.mean(route_ring(symphony, a, b).hops for a, b in pairs)
        ahead = statistics.mean(
            route_ring_lookahead(symphony, a, b).hops for a, b in pairs
        )
        assert ahead < greedy, "lookahead should reduce hops (paper: ~40%)"


class TestDispatch:
    def test_route_dispatches_on_metric(self, chord_net):
        rng = random.Random(31)
        a, b = rng.sample(chord_net.node_ids, 2)
        assert route(chord_net, a, b).success

    def test_route_unknown_metric(self, chord_net):
        chord_net.metric = "hyperbolic"
        try:
            with pytest.raises(ValueError):
                route(chord_net, chord_net.node_ids[0], chord_net.node_ids[1])
        finally:
            chord_net.metric = "ring"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(4, 40))
def test_ring_routing_total_on_random_networks(seed, size):
    """Property: greedy clockwise routing delivers on any random Chord."""
    rng = random.Random(seed)
    space = IdSpace(12)
    ids = space.random_ids(size, rng)
    h = build_uniform_hierarchy(ids, 3, 1, rng)
    net = ChordNetwork(space, h).build_reference()
    a, b = rng.choice(ids), rng.choice(ids)
    r = route_ring(net, a, b)
    assert r.success and r.terminal == b


class TestDomainCrossings:
    @pytest.fixture
    def named_hierarchy(self):
        from repro import hierarchy_from_names

        return hierarchy_from_names(
            {
                1: "stanford.cs.db",
                2: "stanford.cs.db",
                3: "stanford.cs.ai",
                4: "stanford.ee",
                5: "mit.csail",
            }
        )

    def test_counts_per_level(self, named_hierarchy):
        r = Route([1, 2, 3, 4, 5], True, 5)
        # Hop LCA depths along the path: 3, 2, 1, 0.
        assert r.domain_crossings(named_hierarchy, level=1) == 1  # only 4->5
        assert r.domain_crossings(named_hierarchy, level=2) == 2  # 3->4, 4->5
        assert r.domain_crossings(named_hierarchy, level=3) == 3

    def test_default_level_is_top_level(self, named_hierarchy):
        r = Route([1, 5], True, 5)
        assert r.domain_crossings(named_hierarchy) == 1

    def test_intra_domain_path_has_no_crossings(self, named_hierarchy):
        r = Route([1, 2], True, 2)
        for level in (1, 2, 3):
            assert r.domain_crossings(named_hierarchy, level=level) == 0

    def test_zero_hop_route(self, named_hierarchy):
        assert Route([1], True, 1).domain_crossings(named_hierarchy) == 0

    def test_matches_inline_prefix_computation(self):
        """Equals the prefix-inequality count the analysis layer used inline."""
        net = make_crescendo(size=200, levels=3, seed=9)
        h = net.hierarchy
        rng = random.Random(41)
        for _ in range(20):
            a, b = rng.sample(net.node_ids, 2)
            r = route_ring(net, a, b)
            for level in (1, 2):
                inline = sum(
                    1
                    for x, y in zip(r.path, r.path[1:])
                    if h.path_of(x)[:level] != h.path_of(y)[:level]
                )
                assert r.domain_crossings(h, level=level) == inline

    def test_crescendo_crosses_less_than_chord(self):
        """Canon's locality: hierarchical routing crosses domains less."""
        crescendo = make_crescendo(size=300, levels=3, seed=13)
        chord = make_chord(size=300, seed=13)
        rng = random.Random(14)
        pairs = [tuple(rng.sample(crescendo.node_ids, 2)) for _ in range(150)]
        crossings_crescendo = sum(
            route_ring(crescendo, a, b).domain_crossings(crescendo.hierarchy)
            for a, b in pairs
        )
        crossings_chord = sum(
            route_ring(chord, a, b).domain_crossings(crescendo.hierarchy)
            for a, b in pairs
        )
        assert crossings_crescendo < crossings_chord
