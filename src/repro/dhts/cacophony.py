"""Cacophony — the Canonical version of Symphony (Section 3.1).

Each node creates links in its lowest-level domain exactly as in Symphony,
but drawing only ``floor(log2 n_l)`` long links, where ``n_l`` is the number
of nodes in that domain.  At each higher level it draws ``floor(log2 n_level)``
candidates by the same harmonic process over that level's ring, *retains only
those closer than its successor at the lower level*, and additionally links
to its successor at the new level.  The iteration continues to the root.

Like Symphony, Cacophony routes greedily clockwise and supports greedy
routing with a one-step lookahead for O(log n / log log n) hops.
"""

from __future__ import annotations

import math
from typing import Dict, Set

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork
from .symphony import draw_long_links


class CacophonyNetwork(DHTNetwork):
    """Static construction of a Cacophony ring over the hierarchy."""

    metric = "ring"
    family = "cacophony"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy, rng) -> None:
        super().__init__(space, hierarchy)
        self.rng = rng
        #: Clockwise distance to the node's own-ring successor (see Crescendo).
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
            count = max(1, int(math.log2(population))) if population > 1 else 0
            for pos, node in enumerate(members):
                if depth_of[node] < domain.depth:
                    continue  # node not in this domain's subtree chain
                is_leaf_ring = depth_of[node] == domain.depth
                drawn = draw_long_links(node, members, count, space, self.rng)
                if is_leaf_ring:
                    link_sets[node].update(drawn)
                else:
                    gap = self.gap[node]
                    link_sets[node].update(
                        link
                        for link in drawn
                        if space.ring_distance(node, link) < gap
                    )
                successor = members[(pos + 1) % population]
                if successor != node:
                    # Always link the successor at the new level (Section 3.1).
                    link_sets[node].add(successor)
                    self.gap[node] = space.ring_distance(node, successor)
                else:
                    self.gap[node] = space.size
        return link_sets
