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
)


def _chord_input(seed):
    """A 200-node id space and hierarchy (Chord's build ignores the latter)."""
    from repro.core.hierarchy import build_uniform_hierarchy
    from repro.core.idspace import IdSpace

    rng = random.Random(seed)
    space = IdSpace(32)
    ids = space.random_ids(200, rng)
    return space, build_uniform_hierarchy(ids, 4, 2, rng)


def _sabotage_bulk_chord(monkeypatch, corrupt):
    """Make Chord's bulk finger builder hand its links to ``corrupt`` as
    per-node id sets (changed in place); the reference is untouched."""
    from repro.dhts import chord

    honest = chord.bulk_finger_links

    def sabotaged(sorted_ids, space):
        src, dst = honest(sorted_ids, space)
        ids = sorted_ids.tolist()
        link_sets = {node: set() for node in ids}
        for s, d in zip(src.tolist(), dst.tolist()):
            link_sets[ids[s]].add(ids[d])
        corrupt(link_sets)
        return link_sets

    monkeypatch.setattr(chord, "bulk_finger_links", sabotaged)


class TestBuilderOracle:
    def test_equivalent_builds_pass(self):
        from repro.dhts.chord import ChordNetwork

        space, hierarchy = _chord_input(31)
        comparison = compare_builders(lambda: ChordNetwork(space, hierarchy))
        assert comparison.equivalent
        assert comparison.ref.built_with == "python"
        assert comparison.bulk.built_with == "numpy"

    def test_injected_divergence_is_reported(self, monkeypatch):
        from repro.dhts.chord import ChordNetwork

        space, hierarchy = _chord_input(32)
        node = hierarchy.sorted_members(())[7]

        def drop_one(link_sets):  # sabotage the bulk build only
            link_sets[node].discard(min(link_sets[node] - {node}))

        _sabotage_bulk_chord(monkeypatch, drop_one)
        comparison = compare_builders(lambda: ChordNetwork(space, hierarchy))
        assert not comparison.equivalent
        assert any("link tables differ" in v.message for v in comparison.violations)

    def test_invalid_table_in_either_build_is_flagged(self, monkeypatch):
        from repro.dhts.chord import ChordNetwork

        space, hierarchy = _chord_input(33)
        ids = hierarchy.sorted_members(())

        def link_a_stranger(link_sets):
            link_sets[ids[0]].add(ids[-1] + 1)

        _sabotage_bulk_chord(monkeypatch, link_a_stranger)
        comparison = compare_builders(lambda: ChordNetwork(space, hierarchy))
        assert any(
            "invalid link table" in v.message for v in comparison.violations
        )


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
