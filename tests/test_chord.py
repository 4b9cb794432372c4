"""Tests for flat Chord: the finger rule, bulk builder, successor lists."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.core.network import edges_to_csr
from repro.dhts.chord import (
    ChordNetwork,
    bulk_finger_links,
    finger_links,
    ring_finger_targets,
)

import numpy as np


def brute_force_fingers(node, ids, space):
    """Reference: for each k, the closest node at least 2**k away."""
    links = set()
    for k in range(space.bits):
        step = 1 << k
        candidates = [
            other
            for other in ids
            if other != node and space.ring_distance(node, other) >= step
        ]
        if candidates:
            links.add(min(candidates, key=lambda o: space.ring_distance(node, o)))
    return links


class TestFingerRule:
    def test_targets(self):
        space = IdSpace(4)
        assert ring_finger_targets(3, space) == [4, 5, 7, 11]

    def test_matches_bruteforce_small(self):
        space = IdSpace(8)
        rng = random.Random(0)
        ids = sorted(space.random_ids(20, rng))
        for node in ids:
            assert finger_links(node, ids, space) == brute_force_fingers(
                node, ids, space
            )

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 255), min_size=2, max_size=25))
    def test_matches_bruteforce_property(self, id_set):
        space = IdSpace(8)
        ids = sorted(id_set)
        node = ids[0]
        assert finger_links(node, ids, space) == brute_force_fingers(node, ids, space)

    def test_every_link_at_least_octave_away(self):
        """Condition (a): each link is the successor of node + 2**k."""
        space = IdSpace(8)
        ids = sorted(space.random_ids(30, random.Random(1)))
        for node in ids:
            for link in finger_links(node, ids, space):
                dist = space.ring_distance(node, link)
                k = dist.bit_length() - 1
                # No other node lies in [node + 2**k, link).
                assert not any(
                    (1 << k) <= space.ring_distance(node, o) < dist
                    for o in ids
                    if o != node
                )

    def test_two_nodes(self):
        space = IdSpace(8)
        assert finger_links(10, [10, 200], space) == {200}

    def test_single_node_no_links(self):
        space = IdSpace(8)
        assert finger_links(10, [10], space) == set()

    def test_successor_always_linked(self):
        space = IdSpace(8)
        ids = sorted(space.random_ids(30, random.Random(2)))
        for i, node in enumerate(ids):
            succ = ids[(i + 1) % len(ids)]
            assert succ in finger_links(node, ids, space)


class TestBulkBuilder:
    def test_bulk_matches_scalar(self):
        space = IdSpace(16)
        ids = sorted(space.random_ids(200, random.Random(3)))
        arr = np.array(ids, dtype=np.uint64)
        indptr, nbr_pos = edges_to_csr(len(ids), *bulk_finger_links(arr, space))
        for row, node in enumerate(ids):
            bulk = {ids[p] for p in nbr_pos[indptr[row] : indptr[row + 1]]}
            assert bulk == finger_links(node, ids, space)

    def test_bulk_single_node(self):
        space = IdSpace(8)
        src, dst = bulk_finger_links(np.array([5], dtype=np.uint64), space)
        indptr, nbr_pos = edges_to_csr(1, src, dst)
        assert indptr.tolist() == [0, 0] and nbr_pos.size == 0

    def test_network_paths_agree(self):
        rng = random.Random(4)
        space = IdSpace(32)
        ids = space.random_ids(300, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        numpy_net = ChordNetwork(space, h).build()
        py_net = ChordNetwork(space, h).build_reference()
        assert numpy_net.links == py_net.links


class TestChordNetwork:
    @pytest.fixture(scope="class")
    def net(self):
        rng = random.Random(5)
        space = IdSpace(32)
        ids = space.random_ids(1000, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        return ChordNetwork(space, h).build()

    def test_degree_near_log_n(self, net):
        assert abs(net.average_degree() - math.log2(net.size)) < 1.5

    def test_theorem1_degree_bound(self, net):
        """Theorem 1: E[degree] <= log2(n-1) + 1."""
        assert net.average_degree() <= math.log2(net.size - 1) + 1

    def test_links_valid(self, net):
        net.check_links_valid()

    def test_successor_list(self, net):
        ids = net.node_ids
        sl = net.successor_list(ids[0], length=4)
        assert sl == ids[1:5]
        assert len(sl) == 4

    def test_successor_list_wraps(self, net):
        ids = net.node_ids
        sl = net.successor_list(ids[-1], length=3)
        assert sl == ids[0:3]

    def test_successor_list_short_ring(self):
        space = IdSpace(8)
        h = build_uniform_hierarchy([10, 20], 2, 1, random.Random(0))
        net = ChordNetwork(space, h).build_reference()
        assert net.successor_list(10, length=5) == [20]
