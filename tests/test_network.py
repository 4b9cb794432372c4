"""Tests for the DHTNetwork base class."""

from __future__ import annotations

import random

import numpy as np
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
        h._sorted_cache.clear()
        with pytest.raises(ValueError, match="node ids must be unique"):
            ChordNetwork(space, h)

    def test_out_of_range_id_rejected(self):
        space = IdSpace(4)
        h = build_uniform_hierarchy([1, 200], 2, 1, random.Random(0))
        with pytest.raises(ValueError, match=r"identifier 200 outside \[0, 2\*\*4\)"):
            ChordNetwork(space, h)

    @pytest.mark.parametrize("stranger", [-1, 16])
    def test_either_end_of_a_hierarchy_is_range_checked(self, stranger):
        """Ids arrive sorted, so the first and last id bound every other."""
        space = IdSpace(4)
        h = build_uniform_hierarchy([3, stranger, 9, 12], 2, 2, random.Random(0))
        with pytest.raises(ValueError, match=f"identifier {stranger} outside"):
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


# ------------------------------------------------------ the CSR link contract

FIGURE_FAMILIES = ("chord", "crescendo", "kademlia", "kandy")


def _figure_net(family, size=300, seed=5):
    """A bulk-built figure family over a 3-level hierarchy."""
    from repro.verify.builders import build_family

    rng = random.Random(seed)
    space = IdSpace(32)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, 4, 3, rng)
    net = build_family(family, space, hierarchy=hierarchy, rng=random.Random(seed))
    assert net.built_with == "numpy"
    return net


class TestLinkTableContract:
    """A bulk build holds a CSR; ``links`` exists only once something reads
    it, and from then on edits to it are what the kernels compile."""

    @pytest.mark.parametrize("family", FIGURE_FAMILIES)
    def test_the_figure_path_never_builds_link_dicts(self, family):
        from repro.analysis.metrics import sample_routing
        from repro.core.routing import route_ring, route_xor
        from repro.perf.kernels import compile_network

        net = _figure_net(family)
        compile_network(net)
        router = route_ring if net.metric == "ring" else route_xor
        stats = sample_routing(net, random.Random(1), samples=200, router=router)
        assert stats.delivered == 200
        net.average_degree(), net.degree_distribution(), net.max_degree()
        assert net._links is None
        assert getattr(net, "_contact_depth", None) is None

    @pytest.mark.parametrize("family", FIGURE_FAMILIES)
    def test_links_materialise_to_the_held_csr(self, family):
        net = _figure_net(family)
        indptr, nbr_pos = net.link_csr()
        degrees = net.degrees()
        ids = net.node_ids
        for p, node in enumerate(ids):
            row = [ids[q] for q in nbr_pos[indptr[p] : indptr[p + 1]]]
            assert net.links[node] == row == sorted(set(row) - {node})
        assert [len(net.links[n]) for n in ids] == degrees
        again = net.link_csr()  # re-derived from the dict now
        assert again[0].tolist() == indptr.tolist()
        assert again[1].tolist() == nbr_pos.tolist()
        assert again[0].dtype == indptr.dtype and again[1].dtype == nbr_pos.dtype

    def test_edits_to_materialised_links_reach_the_compiled_table(self):
        from repro.perf.kernels import compile_network

        net = _figure_net("crescendo")
        first, second = net.node_ids[:2]
        dropped = net.links[first][0]
        net.links[first].remove(dropped)
        net.links[second] = [net.node_ids[-1]]
        compiled = compile_network(net, cached=False)
        row = lambda p: compiled.neighbors[  # noqa: E731
            compiled.indptr[p] : compiled.indptr[p + 1]
        ].tolist()
        assert dropped not in row(0) and row(0) == net.links[first]
        assert row(1) == [net.node_ids[-1]]
        assert net.degree(first) == len(net.links[first])
        assert net.degrees()[1] == 1

    def test_cutting_links_after_compiling_leaves_the_compiled_table(self):
        from repro.perf.kernels import compile_network

        net = _figure_net("kademlia")
        compiled = compile_network(net)
        neighbors = compiled.neighbors.copy()
        for node in net.node_ids:
            net.links[node] = net.links[node][:1]
        assert compile_network(net) is compiled
        assert np.array_equal(compiled.neighbors, neighbors)
        recompiled = compile_network(net, cached=False)
        assert recompiled.neighbors.size == sum(net.degrees()) < neighbors.size

    def test_whole_table_assignment_replaces_the_csr(self):
        net = _figure_net("chord")
        ids = net.node_ids
        net.links = {node: [ids[(p + 1) % len(ids)]] for p, node in enumerate(ids)}
        indptr, nbr_pos = net.link_csr()
        assert indptr.tolist() == list(range(len(ids) + 1))
        assert nbr_pos.tolist() == [(p + 1) % len(ids) for p in range(len(ids))]
        assert net.average_degree() == 1.0

    def test_a_link_to_no_node_has_no_csr(self):
        net = _figure_net("chord")
        node = net.node_ids[0]
        net.links[node] = net.links[node] + [net.space.size - 1]
        if net.space.size - 1 in net:
            pytest.skip("unlucky collision")
        with pytest.raises(ValueError, match="outside the network"):
            net.link_csr()
        assert net.degree(node) == len(net.links[node])
