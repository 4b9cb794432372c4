"""Mixed-level routing structures (Section 3.5).

Canon places no requirement that the routing structure be the same at every
level of the hierarchy.  The motivating example: nodes in the same
lowest-level domain are on one LAN, where efficient broadcast makes a
*complete graph* cheap; the LANs are then merged at higher levels with the
ordinary Crescendo rules.  At the lowest level routing reaches the right LAN
node in one hop; above it, greedy clockwise routing proceeds as usual.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace, successor_index
from ..core.network import DHTNetwork


class LanCrescendoNetwork(DHTNetwork):
    """Complete-graph LANs at the leaf level, Crescendo merges above.

    Each node's own-ring gap after the LAN level is its successor distance
    within the LAN, exactly as in Crescendo, so the merge economy and the
    locality/convergence properties are unchanged; only the leaf structure
    (and its one-hop routing) differs.
    """

    metric = "ring"
    family = "mixed"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy) -> None:
        super().__init__(space, hierarchy)
        self.gap: Dict[int, int] = {}

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        space = self.space
        link_sets: Dict[int, Set[int]] = {node: set() for node in self.node_ids}
        self.gap = {node: space.size for node in self.node_ids}
        depth_of = {node: len(self.hierarchy.path_of(node)) for node in self.node_ids}

        domains = sorted(self.hierarchy.domains(), key=lambda d: -d.depth)
        for domain in domains:
            members = self.hierarchy.sorted_members(domain.path)
            if not members:
                continue
            population = len(members)
            for pos, node in enumerate(members):
                if depth_of[node] == domain.depth:
                    # LAN level: complete graph over the domain.
                    link_sets[node].update(m for m in members if m != node)
                else:
                    # Crescendo merge: union fingers inside the own-ring gap.
                    gap = self.gap[node]
                    k = 0
                    while (1 << k) < gap and k < space.bits:
                        target = space.add(node, 1 << k)
                        succ = members[successor_index(members, target)]
                        if succ != node and space.ring_distance(node, succ) < gap:
                            link_sets[node].add(succ)
                        k += 1
                successor = members[(pos + 1) % population]
                self.gap[node] = (
                    space.ring_distance(node, successor)
                    if successor != node
                    else space.size
                )
        return link_sets
