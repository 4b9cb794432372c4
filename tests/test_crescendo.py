"""Tests for Crescendo: the Canon merge, the paper's Figure 2 example, and
the two structural routing properties of Section 2.2."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.core.hierarchy import Hierarchy, lca
from repro.core.routing import route_ring
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork

from conftest import make_crescendo


def figure2_network():
    """The paper's Figure 2: rings A = {0,5,10,12} and B = {2,3,8,13} in a
    4-bit space, merged into one Crescendo ring."""
    space = IdSpace(4)
    h = Hierarchy()
    for node in (0, 5, 10, 12):
        h.place(node, ("A",))
    for node in (2, 3, 8, 13):
        h.place(node, ("B",))
    return CrescendoNetwork(space, h).build_reference()


class TestFigure2Example:
    """Every claim the paper makes about Figure 2, verbatim."""

    @pytest.fixture(scope="class")
    def net(self):
        return figure2_network()

    def test_node0_ring_a_links(self, net):
        """Node 0 links to 5 (distances 1, 2, 4) and 10 (distance 8) in A."""
        assert {5, 10} <= set(net.links[0])

    def test_node8_ring_b_links(self, net):
        """Node 8 links to 13 and 2 within ring B."""
        assert {13, 2} <= set(net.links[8])

    def test_node0_adds_only_node2(self, net):
        """Merging adds 0 -> 2; node 8 is ruled out by condition (b)."""
        assert set(net.links[0]) == {2, 5, 10}

    def test_node0_no_link_to_3(self, net):
        assert 3 not in net.links[0]

    def test_node8_adds_10_and_12_but_not_0(self, net):
        """Candidates 10, 12 pass (closer than 13); 0 at distance 8 fails."""
        assert {10, 12} <= set(net.links[8])
        assert 0 not in net.links[8]

    def test_node2_adds_no_merge_links(self, net):
        """Node 2's own-ring neighbor (3, distance 1) blocks all candidates."""
        merge_links = set(net.links[2]) - {3, 8, 13}
        assert merge_links == set()

    def test_gaps_recorded(self, net):
        # After the final merge, gap is the global successor distance.
        assert net.gap[0] == 2
        assert net.gap[8] == 2  # successor of 8 in merged ring is 10


class TestMergeConditions:
    """Conditions (a) and (b) checked on random instances."""

    @pytest.fixture(scope="class")
    def net(self):
        return make_crescendo(size=250, levels=3, fanout=3, seed=11, bits=16)

    def test_condition_a_no_closer_node_skipped(self, net):
        """Each link is the closest node at least 2**k away over some ring."""
        space = net.space
        hierarchy = net.hierarchy
        for node in net.node_ids[:40]:
            for link in net.links[node]:
                dist = space.ring_distance(node, link)
                ring = hierarchy.sorted_members(lca(
                    hierarchy.path_of(node), hierarchy.path_of(link)
                ))
                k = dist.bit_length() - 1
                blockers = [
                    other
                    for other in ring
                    if other != node
                    and (1 << k) <= space.ring_distance(node, other) < dist
                ]
                assert not blockers, (
                    f"link {node}->{link} violates condition (a) in its ring"
                )

    def test_condition_b_links_inside_gap(self, net):
        """Merge links are strictly closer than the own-ring successor."""
        space = net.space
        hierarchy = net.hierarchy
        for node in net.node_ids[:40]:
            path = net.hierarchy.path_of(node)
            for link in net.links[node]:
                shared = lca(path, hierarchy.path_of(link))
                if len(shared) >= len(path):
                    continue  # leaf-ring link: no (b) constraint
                # Own ring at the level below the merge: path[:len(shared)+1].
                own_ring = hierarchy.sorted_members(path[: len(shared) + 1])
                dist = space.ring_distance(node, link)
                own_dists = [
                    space.ring_distance(node, o) for o in own_ring if o != node
                ]
                if own_dists:
                    assert dist < min(own_dists), (
                        f"merge link {node}->{link} not closer than own ring"
                    )

    def test_global_successor_always_linked(self, net):
        ids = net.node_ids
        for i, node in enumerate(ids):
            succ = ids[(i + 1) % len(ids)]
            assert succ in net.links[node]


class TestEquivalences:
    def test_one_level_equals_chord(self):
        rng = random.Random(13)
        space = IdSpace(32)
        ids = space.random_ids(500, rng)
        h = build_uniform_hierarchy(ids, 10, 1, rng)
        chord = ChordNetwork(space, h).build()
        crescendo = CrescendoNetwork(space, h).build()
        assert chord.links == crescendo.links

    def test_numpy_matches_python(self):
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            space = IdSpace(32)
            ids = space.random_ids(200, rng)
            h = build_uniform_hierarchy(ids, 3, 3, rng)
            a = CrescendoNetwork(space, h).build_reference()
            b = CrescendoNetwork(space, h).build()
            assert a.links == b.links

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_numpy_matches_python_property(self, seed):
        rng = random.Random(seed)
        space = IdSpace(16)
        size = rng.randint(65, 130)  # force the numpy path (> 64 members)
        ids = space.random_ids(size, rng)
        h = build_uniform_hierarchy(ids, 3, rng.randint(1, 4), rng)
        a = CrescendoNetwork(space, h).build_reference()
        b = CrescendoNetwork(space, h).build()
        assert a.links == b.links


class TestStructuralProperties:
    """Section 2.2: locality of intra-domain paths; convergence of
    inter-domain paths."""

    @pytest.fixture(scope="class")
    def net(self):
        return make_crescendo(size=500, levels=4, fanout=3, seed=17)

    def test_intra_domain_path_locality(self, net):
        """A route never leaves the lowest common domain of its endpoints."""
        rng = random.Random(18)
        hierarchy = net.hierarchy
        for _ in range(200):
            a, b = rng.sample(net.node_ids, 2)
            shared = hierarchy.lca_of_nodes(a, b)
            r = route_ring(net, a, b)
            assert r.success
            for hop in r.path:
                assert hierarchy.path_of(hop)[: len(shared)] == shared

    def test_inter_domain_path_convergence(self, net):
        """All routes from domain D to an outside key exit through the
        closest predecessor of the key within D."""
        rng = random.Random(19)
        hierarchy = net.hierarchy
        checked = 0
        while checked < 50:
            src = rng.choice(net.node_ids)
            path = hierarchy.path_of(src)
            domain = path[:2]
            key = net.space.random_id(rng)
            owner = net.responsible_node(key)
            if hierarchy.path_of(owner)[:2] == domain:
                continue  # key is inside: no exit to check
            expected_exit = net.exit_node(domain, key)
            r = route_ring(net, src, key)
            inside = [
                n for n in r.path if hierarchy.path_of(n)[:2] == domain
            ]
            assert inside, "route must start inside the domain"
            assert inside[-1] == expected_exit
            checked += 1

    def test_convergence_pairwise(self, net):
        """Two same-domain sources exit through the same node (cacheable)."""
        rng = random.Random(20)
        hierarchy = net.hierarchy
        checked = 0
        while checked < 30:
            src = rng.choice(net.node_ids)
            domain = hierarchy.path_of(src)[:2]
            peers = [m for m in hierarchy.members(domain) if m != src]
            if not peers:
                continue
            other = rng.choice(peers)
            key = net.space.random_id(rng)
            if hierarchy.path_of(net.responsible_node(key))[:2] == domain:
                continue
            exit1 = [n for n in route_ring(net, src, key).path
                     if hierarchy.path_of(n)[:2] == domain][-1]
            exit2 = [n for n in route_ring(net, other, key).path
                     if hierarchy.path_of(n)[:2] == domain][-1]
            assert exit1 == exit2
            checked += 1


class TestDegreeBehaviour:
    def test_average_degree_below_chord(self):
        """Paper: Crescendo's average degree is below Chord's and decreases
        with hierarchy depth."""
        rng = random.Random(23)
        space = IdSpace(32)
        ids = space.random_ids(2000, rng)
        degrees = []
        for levels in (1, 3, 5):
            h = build_uniform_hierarchy(ids, 10, levels, random.Random(23))
            net = CrescendoNetwork(space, h).build()
            degrees.append(net.average_degree())
        assert degrees[0] >= degrees[1] >= degrees[2]

    def test_theorem2_degree_bound(self):
        rng = random.Random(24)
        space = IdSpace(32)
        ids = space.random_ids(1500, rng)
        for levels in (2, 4):
            h = build_uniform_hierarchy(ids, 10, levels, random.Random(24))
            net = CrescendoNetwork(space, h).build()
            n = len(ids)
            bound = math.log2(n - 1) + min(levels, math.log2(n))
            assert net.average_degree() <= bound

    def test_max_degree_logarithmic(self):
        """Theorem 3: O(log n) degree w.h.p."""
        net = make_crescendo(size=2000, levels=4, fanout=10, seed=25)
        assert net.max_degree() <= 4 * math.log2(net.size)


class TestLevelBookkeeping:
    @pytest.fixture(scope="class")
    def net(self):
        return make_crescendo(size=120, levels=3, fanout=3, seed=29, bits=16)

    def test_levels_of(self, net):
        node = net.node_ids[0]
        assert net.levels_of(node) == len(net.hierarchy.path_of(node)) + 1

    def test_successor_at_level_global(self, net):
        ids = net.node_ids
        for i, node in enumerate(ids[:20]):
            assert net.successor_at_level(node, 0) == ids[(i + 1) % len(ids)]

    def test_successor_at_leaf_level(self, net):
        node = net.node_ids[0]
        leaf_depth = len(net.hierarchy.path_of(node))
        members = net.hierarchy.sorted_members(net.hierarchy.path_of(node))
        pos = members.index(node)
        expected = members[(pos + 1) % len(members)]
        assert net.successor_at_level(node, leaf_depth) == expected

    def test_successor_at_invalid_level(self, net):
        node = net.node_ids[0]
        assert net.successor_at_level(node, 99) is None

    def test_exit_node_is_domain_predecessor(self, net):
        rng = random.Random(30)
        key = net.space.random_id(rng)
        domain = net.hierarchy.path_of(net.node_ids[0])[:1]
        members = net.hierarchy.sorted_members(domain)
        assert net.exit_node(domain, key) == net.responsible_node(key, within=members)

    def test_exit_node_empty_domain(self, net):
        with pytest.raises(ValueError):
            net.exit_node(("nope",), 0)
