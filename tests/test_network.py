"""Tests for the DHTNetwork base class."""

from __future__ import annotations

import random

import pytest

from repro import IdSpace, build_uniform_hierarchy
from repro.core.network import DHTNetwork, edges
from repro.dhts.chord import ChordNetwork


def small_chord(size=50, seed=0, bits=12):
    rng = random.Random(seed)
    space = IdSpace(bits)
    ids = space.random_ids(size, rng)
    h = build_uniform_hierarchy(ids, 3, 1, rng)
    return ChordNetwork(space, h).build_reference()


class TestBase:
    def test_size(self):
        assert small_chord(50).size == 50

    def test_contains(self):
        net = small_chord()
        assert net.node_ids[0] in net
        assert -1 not in net

    def test_neighbors_sorted(self):
        net = small_chord()
        for node in net.node_ids:
            nbrs = net.neighbors(node)
            assert nbrs == sorted(nbrs)

    def test_degree_consistency(self):
        net = small_chord()
        assert net.degrees() == [net.degree(i) for i in net.node_ids]
        assert net.max_degree() == max(net.degrees())

    def test_average_degree(self):
        net = small_chord()
        assert abs(net.average_degree() - sum(net.degrees()) / net.size) < 1e-12

    def test_degree_distribution_sums_to_one(self):
        net = small_chord()
        assert abs(sum(net.degree_distribution().values()) - 1.0) < 1e-9

    def test_check_links_valid(self):
        net = small_chord()
        net.check_links_valid()

    def test_check_links_detects_self_link(self):
        net = small_chord()
        node = net.node_ids[0]
        net.links[node] = net.links[node] + [node]
        with pytest.raises(AssertionError):
            net.check_links_valid()

    def test_check_links_detects_unknown_target(self):
        net = small_chord()
        node = net.node_ids[0]
        net.links[node] = net.links[node] + [net.space.size - 1 - max(net.node_ids) % 2]
        if net.links[node][-1] in net:
            pytest.skip("unlucky collision")
        with pytest.raises(AssertionError):
            net.check_links_valid()

    def test_require_built(self):
        rng = random.Random(1)
        space = IdSpace(12)
        ids = space.random_ids(10, rng)
        h = build_uniform_hierarchy(ids, 2, 1, rng)
        net = ChordNetwork(space, h)
        with pytest.raises(RuntimeError):
            net.require_built()

    def test_build_base_not_implemented(self):
        rng = random.Random(2)
        space = IdSpace(12)
        ids = space.random_ids(5, rng)
        h = build_uniform_hierarchy(ids, 2, 1, rng)
        with pytest.raises(NotImplementedError):
            DHTNetwork(space, h).build()

    def test_duplicate_ids_rejected(self):
        space = IdSpace(12)
        h = build_uniform_hierarchy([1, 2, 3], 2, 1, random.Random(0))
        # Hierarchy enforces unique ids at placement; simulate corruption.
        h._members[()].append(1)
        with pytest.raises(ValueError):
            ChordNetwork(space, h)

    def test_out_of_range_id_rejected(self):
        space = IdSpace(4)
        h = build_uniform_hierarchy([1, 200], 2, 1, random.Random(0))
        with pytest.raises(ValueError):
            ChordNetwork(space, h)


class TestRingLookups:
    def test_successor(self):
        net = small_chord()
        ids = net.node_ids
        assert net.successor(ids[3]) == ids[3]
        assert net.successor(ids[3] + 1) == ids[4 % len(ids)]

    def test_successor_wraps(self):
        net = small_chord()
        assert net.successor(max(net.node_ids) + 1) == min(net.node_ids)

    def test_responsible_node_exact(self):
        net = small_chord()
        node = net.node_ids[5]
        assert net.responsible_node(node) == node

    def test_responsible_node_between(self):
        net = small_chord()
        ids = net.node_ids
        gap_key = ids[5] + 1
        if gap_key == ids[6]:
            pytest.skip("adjacent ids")
        assert net.responsible_node(gap_key) == ids[5]

    def test_responsible_within_subset(self):
        net = small_chord()
        subset = net.node_ids[::3]
        key = subset[2] + 1
        owner = net.responsible_node(key, within=subset)
        assert owner in subset

    def test_edges_iterator(self):
        net = small_chord()
        edge_list = list(edges(net))
        assert len(edge_list) == sum(net.degrees())
        assert all(a in net and b in net for a, b in edge_list)
