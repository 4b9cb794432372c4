"""Differential oracles: they pass on agreement and flag divergence.

The builder oracle is trusted by ``test_perf_build``; here it is tested
*as a detector* — injected divergences must surface as violations.  The
routing oracle gets the property treatment: over seeded grids of
(family, seed, alive-fraction), batch kernel routes must agree hop-for-hop
with the scalar failure-aware engines.
"""

from __future__ import annotations

import random

import pytest

from repro.core.routing import route
from repro.verify.builders import FAMILIES, small_network
from repro.verify.oracles import (
    BuildComparison,
    compare_builders,
    compare_routing,
    ks_critical,
    ks_distance,
)


def _sabotage_bulk_naive(monkeypatch, corrupt):
    """Make the naive family's bulk link-set builder pass its output through
    ``corrupt`` (in place); the reference construction is untouched."""
    from repro.perf import build as perf_build

    honest = perf_build.naive_link_sets

    def sabotaged(*args):
        link_sets = honest(*args)
        corrupt(link_sets)
        return link_sets

    monkeypatch.setattr(perf_build, "naive_link_sets", sabotaged)


class TestBuilderOracle:
    def test_equivalent_builds_pass(self):
        from repro.core.hierarchy import build_uniform_hierarchy
        from repro.core.idspace import IdSpace
        from repro.dhts.naive import NaiveHierarchicalChord

        rng = random.Random(31)
        space = IdSpace(32)
        ids = space.random_ids(200, rng)
        hierarchy = build_uniform_hierarchy(ids, 4, 2, rng)
        comparison = compare_builders(
            lambda: NaiveHierarchicalChord(space, hierarchy)
        )
        assert comparison.equivalent
        assert comparison.ref.built_with == "python"
        assert comparison.bulk.built_with == "numpy"

    def test_injected_divergence_is_reported(self, monkeypatch):
        from repro.core.hierarchy import build_uniform_hierarchy
        from repro.core.idspace import IdSpace
        from repro.dhts.naive import NaiveHierarchicalChord

        rng = random.Random(32)
        space = IdSpace(32)
        ids = space.random_ids(200, rng)
        hierarchy = build_uniform_hierarchy(ids, 4, 2, rng)
        node = sorted(ids)[7]

        def drop_one(link_sets):  # sabotage the bulk build only
            link_sets[node].discard(min(link_sets[node] - {node}))

        _sabotage_bulk_naive(monkeypatch, drop_one)
        comparison = compare_builders(
            lambda: NaiveHierarchicalChord(space, hierarchy)
        )
        assert not comparison.equivalent
        assert any("link tables differ" in v.message for v in comparison.violations)

    def test_invalid_table_in_either_build_is_flagged(self, monkeypatch):
        from repro.core.hierarchy import build_uniform_hierarchy
        from repro.core.idspace import IdSpace
        from repro.dhts.naive import NaiveHierarchicalChord

        rng = random.Random(33)
        space = IdSpace(32)
        ids = space.random_ids(200, rng)
        hierarchy = build_uniform_hierarchy(ids, 4, 2, rng)
        def link_a_stranger(link_sets):
            link_sets[min(ids)].add(max(ids) + 1)

        _sabotage_bulk_naive(monkeypatch, link_a_stranger)
        comparison = compare_builders(
            lambda: NaiveHierarchicalChord(space, hierarchy)
        )
        assert any(
            "invalid link table" in v.message for v in comparison.violations
        )

    def test_ks_helpers(self):
        rng = random.Random(34)
        same = [rng.random() for _ in range(500)]
        other = [rng.random() ** 3 for _ in range(500)]
        assert ks_distance(same, same) < ks_critical(500, 500)
        assert ks_distance(same, other) > ks_critical(500, 500)


class TestRoutingOracle:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_full_membership_agreement(self, family):
        net = small_network(family, seed=41)
        rng = random.Random(f"routing:{family}")
        ids = net.node_ids
        pairs = [
            (ids[rng.randrange(len(ids))], net.space.random_id(rng))
            for _ in range(40)
        ]
        assert compare_routing(net, pairs) == []

    @pytest.mark.parametrize("family", ("chord", "crescendo", "kademlia", "can"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("dead_fraction", (0.1, 0.3))
    def test_alive_filtered_agreement(self, family, seed, dead_fraction):
        """Property: batch and scalar engines agree under failures too."""
        net = small_network(family, seed=seed)
        rng = random.Random(f"alive:{family}:{seed}:{dead_fraction}")
        ids = list(net.node_ids)
        dead = set(rng.sample(ids, int(len(ids) * dead_fraction)))
        alive = set(ids) - dead
        sources = sorted(alive)
        pairs = [
            (sources[rng.randrange(len(sources))], net.space.random_id(rng))
            for _ in range(30)
        ]
        assert compare_routing(net, pairs, alive=alive) == []

    def test_divergence_is_attributed_to_a_hop(self):
        net = small_network("chord", seed=42)
        ids = net.node_ids
        src, key = ids[0], ids[len(ids) // 2]
        scalar = route(net, src, key)
        assert scalar.success and len(scalar.path) >= 2
        assert compare_routing(net, [(src, key)]) == []  # compiles the net
        # Remove the scalar engine's first hop *after* the batch kernel
        # memoised its compiled tables: the engines now see different
        # networks, and the oracle must attribute the divergence to src.
        first_hop = scalar.path[1]
        net.links[src] = [t for t in net.links[src] if t != first_hop]
        violations = compare_routing(net, [(src, key)])
        assert violations
        assert violations[0].node == src
