"""Multicast-tree workload (Figure 9 of the paper).

Pick 1000 random sources and route a query from each to one common random
destination; the union of the 1000 paths is a multicast tree rooted at the
destination (data flows along the reversed query paths).  The bandwidth
metric is the number of *inter-domain* edges in that tree, for domains
defined at each level of the hierarchy — inter-domain links are the
expensive, bottleneck-prone ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Set, Tuple

from ..core.hierarchy import Hierarchy
from ..core.network import DHTNetwork
from ..core.routing import Route

Router = Callable[[DHTNetwork, int, int], Route]


def multicast_tree(
    network: DHTNetwork,
    router: Router,
    sources: Sequence[int],
    dest: int,
) -> Set[Tuple[int, int]]:
    """Union of the query paths' edges from every source to ``dest``."""
    edges: Set[Tuple[int, int]] = set()
    for src in sources:
        if src == dest:
            continue
        route = router(network, src, dest)
        if not route.success:
            continue
        edges.update(route.edges())
    return edges


def count_interdomain_edges(
    hierarchy: Hierarchy, edges: Set[Tuple[int, int]], depth: int
) -> int:
    """Edges whose endpoints lie in different depth-``depth`` domains."""
    count = 0
    for a, b in edges:
        if hierarchy.path_of(a)[:depth] != hierarchy.path_of(b)[:depth]:
            count += 1
    return count


def multicast_interdomain_profile(
    network: DHTNetwork,
    router: Router,
    sources: Sequence[int],
    dest: int,
    depths: Sequence[int] = (1, 2, 3),
) -> Dict[int, int]:
    """Inter-domain edge counts of one multicast tree at several depths."""
    edges = multicast_tree(network, router, sources, dest)
    return {
        depth: count_interdomain_edges(network.hierarchy, edges, depth)
        for depth in depths
    }
