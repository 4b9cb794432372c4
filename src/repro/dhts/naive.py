"""The strawman Canon motivates against: naive hierarchical Chord.

The obvious way to get per-domain rings is to build a *full* Chord ring at
every level of the hierarchy — each node keeps complete Chord fingers in its
leaf domain, its parent domain, …, and the global ring.  That gives the same
locality and convergence properties as Crescendo, but the per-node state is
~levels x log2(n) links instead of ~log2(n): exactly the cost Canon's
condition (b) eliminates.  This network exists for the merge-economy
ablation (`repro.experiments.ablations.merge_economy`, asserted in
`tests/test_experiments.py::TestAblations`) that quantifies the Canon
merge's economy.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.idspace import successor_index
from ..core.network import DHTNetwork


class NaiveHierarchicalChord(DHTNetwork):
    """Full Chord fingers at every level (no Canon merge economy)."""

    metric = "ring"
    family = "naive"

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        space = self.space
        link_sets: Dict[int, Set[int]] = {node: set() for node in self.node_ids}
        for node in self.node_ids:
            path = self.hierarchy.path_of(node)
            for depth in range(len(path), -1, -1):
                members = self.hierarchy.sorted_members(path[:depth])
                if len(members) < 2:
                    continue
                for k in range(space.bits):
                    target = space.add(node, 1 << k)
                    succ = members[successor_index(members, target)]
                    if succ != node:
                        link_sets[node].add(succ)
        return link_sets
