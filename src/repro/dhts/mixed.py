"""Mixed-level routing structures (Section 3.5).

Canon places no requirement that the routing structure be the same at every
level of the hierarchy.  The motivating example: nodes in the same
lowest-level domain are on one LAN, where efficient broadcast makes a
*complete graph* cheap; the LANs are then merged at higher levels with the
ordinary Crescendo rules.  At the lowest level routing reaches the right LAN
node in one hop; above it, greedy clockwise routing proceeds as usual.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork
from .chord import finger_links
from .crescendo import canon_rings


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
        link_sets, self.gap, _ = canon_rings(self, self._lan_then_fingers)
        return link_sets

    def _lan_then_fingers(self, node: int, members: List[int], gap: int) -> Set[int]:
        """The complete graph in the node's LAN, Crescendo's fingers inside
        the gap above it.

        A ring is the node's LAN when it has the LAN's member count (every
        ring holding the node contains its LAN); a higher ring with exactly
        the LAN's members adds nothing under either rule.
        """
        hierarchy = self.hierarchy
        if len(members) == hierarchy.member_count(hierarchy.path_of(node)):
            return {m for m in members if m != node}
        return finger_links(node, members, self.space, gap)
