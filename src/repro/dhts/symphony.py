"""Flat Symphony (Manku, Bawa & Raghavan, USITS 2003).

A randomized small-world ring: each node creates ``floor(log2 n)`` long links
drawn independently from the harmonic distribution (the probability of
linking to a node at clockwise distance d is proportional to 1/d), plus a
link to its immediate successor.  Routing is greedy clockwise, optionally
with the one-step lookahead of Section 3.1 (O(log n / log log n) hops).
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace, successor_index
from ..core.network import DHTNetwork

#: Attempts per requested long link before giving up on distinctness.
_MAX_DRAWS = 64


def harmonic_distance(space: IdSpace, population: int, rng) -> int:
    """Draw a clockwise distance from Symphony's harmonic distribution.

    Uses the inverse-CDF form ``x = n**(u-1)`` on the unit ring, scaled to
    the ID space: the pdf of x is ``1/(x ln n)`` on ``[1/n, 1]``.
    """
    if population < 2:
        return 1
    fraction = population ** (rng.random() - 1.0)
    return max(1, int(fraction * space.size))


def draw_long_links(
    node_id: int,
    members: List[int],
    count: int,
    space: IdSpace,
    rng,
) -> Set[int]:
    """Draw ``count`` distinct harmonic long links for ``node_id`` over a ring."""
    links: Set[int] = set()
    population = len(members)
    if population < 2:
        return links
    attempts = 0
    while len(links) < count and attempts < count * _MAX_DRAWS:
        attempts += 1
        distance = harmonic_distance(space, population, rng)
        target = space.add(node_id, distance)
        succ = members[successor_index(members, target)]
        if succ != node_id:
            links.add(succ)
    if len(links) < count:
        # Tiny or clustered rings can exhaust the attempt budget and come up
        # short, silently thinning the degree distribution; count it.
        from ..obs.metrics import active_registry

        registry = active_registry()
        if registry is not None:
            registry.counter("build.symphony.short_draws").inc(count - len(links))
    return links


def estimate_population(
    node_id: int, members: List[int], space: IdSpace, probes: int = 3
) -> float:
    """Symphony's cheap population estimate from local ring density.

    Both Symphony and Cacophony need n (or n_level) to size their harmonic
    draws; the paper notes "it is possible to perform this estimation
    cheaply and accurately".  The standard estimator: the expected clockwise
    gap between ring neighbors is ``2**bits / n``, so the inverse of the
    mean over the node's next few successors estimates n.
    """
    if len(members) < 2:
        return float(len(members))
    position = members.index(node_id)
    gaps = []
    for i in range(min(probes, len(members) - 1)):
        a = members[(position + i) % len(members)]
        b = members[(position + i + 1) % len(members)]
        gaps.append(space.ring_distance(a, b) or space.size)
    return space.size / (sum(gaps) / len(gaps))


class SymphonyNetwork(DHTNetwork):
    """A flat Symphony ring over all nodes.

    ``links_per_node`` defaults to the paper's ``floor(log2 n)``; Symphony's
    cheap population estimation protocol is replaced by the true count (the
    paper notes the estimate is accurate).
    """

    metric = "ring"
    family = "symphony"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        rng,
        links_per_node: int = 0,
    ) -> None:
        super().__init__(space, hierarchy)
        self.rng = rng
        self.links_per_node = links_per_node

    def _link_count(self) -> int:
        return self.links_per_node or max(1, int(math.log2(max(2, self.size))))

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        members = self.node_ids
        count = self._link_count()
        link_sets = {}
        for pos, node in enumerate(members):
            links = draw_long_links(node, members, count, self.space, self.rng)
            links.add(members[(pos + 1) % len(members)])  # successor (short link)
            link_sets[node] = links
        return link_sets
