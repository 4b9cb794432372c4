"""Tests for the Section 3.5 mixed-level structure (complete-graph LANs)."""

from __future__ import annotations

import random

import pytest

from repro import IdSpace, build_uniform_hierarchy
from repro.core.routing import route_ring
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.mixed import LanCrescendoNetwork


def build(size=300, levels=3, fanout=4, seed=0):
    rng = random.Random(seed)
    space = IdSpace(32)
    ids = space.random_ids(size, rng)
    h = build_uniform_hierarchy(ids, fanout, levels, rng)
    return LanCrescendoNetwork(space, h).build()


@pytest.fixture(scope="module")
def net():
    return build()


class TestStructure:
    def test_lan_is_complete_graph(self, net):
        hierarchy = net.hierarchy
        for node in net.node_ids[:60]:
            lan = hierarchy.members(hierarchy.path_of(node))
            for peer in lan:
                if peer != node:
                    assert peer in net.links[node]

    def test_merge_links_match_crescendo(self, net):
        """Above the LAN level the merge rule is Crescendo's: cross-domain
        links obey conditions (a) and (b)."""
        space = net.space
        hierarchy = net.hierarchy
        crescendo = CrescendoNetwork(net.space, hierarchy).build_reference()
        for node in net.node_ids[:40]:
            leaf = hierarchy.path_of(node)
            mixed_cross = {
                l for l in net.links[node] if hierarchy.path_of(l) != leaf
            }
            cres_cross = {
                l for l in crescendo.links[node] if hierarchy.path_of(l) != leaf
            }
            assert mixed_cross == cres_cross

    def test_links_valid(self, net):
        net.check_links_valid()


class TestRouting:
    def test_total_delivery(self, net):
        rng = random.Random(1)
        for _ in range(150):
            a, b = rng.sample(net.node_ids, 2)
            r = route_ring(net, a, b)
            assert r.success and r.terminal == b

    def test_lan_routing_is_one_hop(self, net):
        hierarchy = net.hierarchy
        rng = random.Random(2)
        checked = 0
        while checked < 50:
            a = rng.choice(net.node_ids)
            lan = [m for m in hierarchy.members(hierarchy.path_of(a)) if m != a]
            if not lan:
                continue
            b = rng.choice(lan)
            assert route_ring(net, a, b).hops == 1
            checked += 1

    def test_intra_domain_locality(self, net):
        rng = random.Random(3)
        hierarchy = net.hierarchy
        for _ in range(100):
            a, b = rng.sample(net.node_ids, 2)
            shared = hierarchy.lca_of_nodes(a, b)
            r = route_ring(net, a, b)
            assert all(
                hierarchy.path_of(n)[: len(shared)] == shared for n in r.path
            )

    def test_fewer_hops_than_plain_crescendo(self, net):
        import statistics

        rng = random.Random(4)
        crescendo = CrescendoNetwork(net.space, net.hierarchy).build()
        pairs = [rng.sample(net.node_ids, 2) for _ in range(200)]
        lan_hops = statistics.mean(route_ring(net, a, b).hops for a, b in pairs)
        cres_hops = statistics.mean(
            route_ring(crescendo, a, b).hops for a, b in pairs
        )
        assert lan_hops <= cres_hops
