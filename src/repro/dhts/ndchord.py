"""Nondeterministic Chord and its Canonical version (Section 3.2).

In nondeterministic Chord (used by CFS and studied by Gummadi et al.), a node
links to *any* node with clockwise distance in ``[2**(k-1), 2**k)`` for each
``k``, instead of deterministically to the closest node at least ``2**(k-1)``
away.  Routing properties are almost identical to Symphony.

Nondeterministic Crescendo applies the Canon merge: when rings merge, a node
``m`` may exercise its nondeterministic choice *only among nodes closer than
any node in its own ring* — i.e. the candidate range for octave k shrinks to
``[2**k, min(2**(k+1), gap))`` where ``gap`` is the distance to m's own-ring
successor (the paper's example: with the closest own-ring node at distance
12, the octave [8, 16) shrinks to [8, 12)).

ND-Crescendo builds by the Canon merge,
:func:`repro.dhts.crescendo.canon_rings`, with the cut octave draw as its
rule; in the leaf ring the gap is the whole space, so no octave is cut.

Both variants keep an explicit successor link per level (the k = 0 octave can
be empty, and greedy clockwise routing needs the successor for guaranteed
progress; flat ND-Chord deployments keep successor lists for the same
reason).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace, successor_index
from ..core.network import DHTNetwork
from .crescendo import canon_rings


def annulus_choice(
    node_id: int,
    members: List[int],
    lo: int,
    hi: int,
    space: IdSpace,
    rng,
) -> Optional[int]:
    """A uniformly random member at clockwise distance in ``[lo, hi)``.

    ``members`` must be sorted.  Returns ``None`` when the annulus is empty.
    ``lo`` must be >= 1 so the node itself is never a candidate.
    """
    if lo < 1:
        raise ValueError("annulus lower bound must be >= 1")
    hi = min(hi, space.size)
    if hi <= lo or len(members) < 2:
        return None
    start = successor_index(members, space.add(node_id, lo))
    end = successor_index(members, space.add(node_id, hi))
    count = (end - start) % len(members)
    if count == 0:
        # Either empty or the annulus covers every member: disambiguate.
        first = members[start]
        if lo <= space.ring_distance(node_id, first) < hi:
            count = len(members)
        else:
            return None
    pick = (start + rng.randrange(count)) % len(members)
    candidate = members[pick]
    return None if candidate == node_id else candidate


class NDChordNetwork(DHTNetwork):
    """Flat nondeterministic Chord: one random link per distance octave."""

    metric = "ring"
    family = "ndchord"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy, rng) -> None:
        super().__init__(space, hierarchy)
        self.rng = rng

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        members = self.node_ids
        population = len(members)
        link_sets: Dict[int, Set[int]] = {}
        for pos, node in enumerate(members):
            links: Set[int] = set()
            for k in range(self.space.bits):
                choice = annulus_choice(
                    node, members, 1 << k, 1 << (k + 1), self.space, self.rng
                )
                if choice is not None:
                    links.add(choice)
            successor = members[(pos + 1) % population]
            if successor != node:
                links.add(successor)
            link_sets[node] = links
        return link_sets


class NDCrescendoNetwork(DHTNetwork):
    """Canonical nondeterministic Chord (nondeterministic Crescendo)."""

    metric = "ring"
    family = "ndcrescendo"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy, rng) -> None:
        super().__init__(space, hierarchy)
        self.rng = rng
        self.gap: Dict[int, int] = {}

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        link_sets, self.gap, _ = canon_rings(self, self._octave_links)
        return link_sets

    def _octave_links(self, node: int, members: List[int], gap: int) -> Set[int]:
        """ND-Crescendo's rule: one random member per octave ``[2**k,
        2**(k+1))``, the octaves cut at the node's own-ring gap."""
        links: Set[int] = set()
        for k in range(self.space.bits):
            lo = 1 << k
            if lo >= gap:
                break
            choice = annulus_choice(
                node, members, lo, min(lo << 1, gap), self.space, self.rng
            )
            if choice is not None:
                links.add(choice)
        return links
