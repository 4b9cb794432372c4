"""Misuse and degenerate-input behaviour across the public API.

Locks in that errors are raised early with clear context rather than
surfacing as corrupt state later.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    ChordNetwork,
    CrescendoNetwork,
    IdSpace,
    build_uniform_hierarchy,
)
from repro.core.hierarchy import Hierarchy
from repro.core.routing import route_ring
from repro.multicast import MulticastService
from repro.storage import HierarchicalStore


def tiny_net(size=5, seed=0):
    rng = random.Random(seed)
    space = IdSpace(16)
    ids = space.random_ids(size, rng)
    h = build_uniform_hierarchy(ids, 2, 1, rng)
    return CrescendoNetwork(space, h).build_reference()


class TestDegenerateNetworks:
    def test_single_node_network(self):
        net = tiny_net(size=1)
        node = net.node_ids[0]
        assert net.links[node] == []
        result = route_ring(net, node, node)
        assert result.success and result.hops == 0

    def test_single_node_key_lookup(self):
        net = tiny_net(size=1)
        node = net.node_ids[0]
        result = route_ring(net, node, (node + 12345) % net.space.size)
        assert result.success and result.terminal == node

    def test_two_node_network(self):
        net = tiny_net(size=2)
        a, b = net.node_ids
        assert route_ring(net, a, b).success
        assert route_ring(net, b, a).success

    def test_empty_hierarchy_network(self):
        space = IdSpace(16)
        net = ChordNetwork(space, Hierarchy()).build_reference()
        assert net.size == 0

    def test_dense_id_space(self):
        """Every identifier taken: construction and routing still work."""
        space = IdSpace(4)
        h = Hierarchy()
        for i in range(16):
            h.place(i, ())
        net = CrescendoNetwork(space, h).build_reference()
        for src in range(0, 16, 5):
            result = route_ring(net, src, (src + 7) % 16)
            assert result.success


class TestMisuse:
    def test_store_requires_built_network(self):
        rng = random.Random(1)
        space = IdSpace(16)
        ids = space.random_ids(5, rng)
        h = build_uniform_hierarchy(ids, 2, 1, rng)
        unbuilt = CrescendoNetwork(space, h)
        with pytest.raises(RuntimeError):
            HierarchicalStore(unbuilt)

    def test_multicast_requires_built_network(self):
        rng = random.Random(2)
        space = IdSpace(16)
        ids = space.random_ids(5, rng)
        h = build_uniform_hierarchy(ids, 2, 1, rng)
        with pytest.raises(RuntimeError):
            MulticastService(CrescendoNetwork(space, h))

    def test_store_unknown_origin(self):
        net = tiny_net()
        store = HierarchicalStore(net)
        with pytest.raises(KeyError):
            store.put(999_999, "k", "v")

    def test_subscribe_unknown_topic(self):
        net = tiny_net()
        service = MulticastService(net)
        with pytest.raises(KeyError):
            service.subscribe(net.node_ids[0], "never-created")

    def test_route_from_unknown_node(self):
        net = tiny_net()
        with pytest.raises(KeyError):
            route_ring(net, 999_999, net.node_ids[0])


class TestHierarchyEdgeCases:
    def test_mixed_depth_placements(self):
        """Nodes at different leaf depths coexist in one network."""
        space = IdSpace(16)
        rng = random.Random(3)
        h = Hierarchy()
        ids = space.random_ids(40, rng)
        for i, node in enumerate(ids):
            depth = i % 3
            h.place(node, tuple("abc"[: depth]))
        net = CrescendoNetwork(space, h).build_reference()
        for _ in range(40):
            a, b = rng.sample(ids, 2)
            result = route_ring(net, a, b)
            assert result.success and result.terminal == b

    def test_singleton_leaf_domains(self):
        """Every node alone in its own leaf domain ~ flat Chord."""
        space = IdSpace(16)
        rng = random.Random(4)
        h = Hierarchy()
        ids = space.random_ids(30, rng)
        for i, node in enumerate(ids):
            h.place(node, (f"solo-{i}",))
        net = CrescendoNetwork(space, h).build_reference()
        flat_h = build_uniform_hierarchy(ids, 2, 1, random.Random(4))
        chord = ChordNetwork(space, flat_h).build_reference()
        assert net.links == chord.links
