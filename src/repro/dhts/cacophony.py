"""Cacophony — the Canonical version of Symphony (Section 3.1).

Each node creates links in its lowest-level domain exactly as in Symphony,
but drawing only ``floor(log2 n_l)`` long links, where ``n_l`` is the number
of nodes in that domain.  At each higher level it draws ``floor(log2 n_level)``
candidates by the same harmonic process over that level's ring, *retains only
those closer than its successor at the lower level*, and additionally links
to its successor at the new level.  The iteration continues to the root.
That is the Canon merge, :func:`repro.dhts.crescendo.canon_rings`, with the
harmonic draw as its rule; in the leaf ring the gap is the whole space, so
every draw is kept.

Like Symphony, Cacophony routes greedily clockwise and supports greedy
routing with a one-step lookahead for O(log n / log log n) hops.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork
from .crescendo import canon_rings
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
        link_sets, self.gap, _ = canon_rings(self, self._harmonic_links)
        return link_sets

    def _harmonic_links(self, node: int, members: List[int], gap: int) -> Set[int]:
        """Cacophony's rule: ``floor(log2 n_level)`` harmonic draws over the
        ring, each kept only if closer than the node's own-ring gap."""
        space = self.space
        count = int(math.log2(len(members))) if len(members) > 1 else 0
        drawn = draw_long_links(node, members, count, space, self.rng)
        return {link for link in drawn if space.ring_distance(node, link) < gap}
