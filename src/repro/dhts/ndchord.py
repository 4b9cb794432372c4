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
                gap = self.gap[node]
                is_leaf_ring = depth_of[node] == domain.depth
                for k in range(space.bits):
                    lo = 1 << k
                    if not is_leaf_ring and lo >= gap:
                        break
                    hi = 1 << (k + 1)
                    if not is_leaf_ring:
                        # The nondeterministic choice is restricted to nodes
                        # closer than any node in the node's own ring.
                        hi = min(hi, gap)
                    choice = annulus_choice(node, members, lo, hi, space, self.rng)
                    if choice is not None:
                        link_sets[node].add(choice)
                successor = members[(pos + 1) % population]
                if successor != node:
                    new_gap = space.ring_distance(node, successor)
                    if is_leaf_ring or new_gap < gap:
                        link_sets[node].add(successor)
                    self.gap[node] = new_gap
                else:
                    self.gap[node] = space.size
        return link_sets
