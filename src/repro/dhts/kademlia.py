"""Flat Kademlia (Maymounkov & Mazieres, IPTPS 2002).

Distance between nodes is the XOR of their identifiers.  Each node maintains
a link to a node with XOR distance in ``[2**k, 2**(k+1))`` for each ``k`` —
the *k-bucket* — whenever that bucket is non-empty.  (Real Kademlia keeps
multiple contacts per bucket for resilience; like the paper, we model one,
with an optional ``bucket_size`` for the failure experiments.)  Routing
greedily shrinks the XOR distance.

Bucket k of node m is exactly the set of nodes that agree with m on all bits
above k and differ at bit k — a *contiguous range* of the sorted identifier
list, which makes construction O(n log n) per bucket.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace, successor_index
from ..core.network import DHTNetwork, Edges


def bucket_bounds(node_id: int, k: int, space: IdSpace) -> Tuple[int, int]:
    """The identifier interval ``[lo, hi)`` forming bucket ``k`` of a node.

    Members share the node's bits above position ``k`` and differ at ``k``;
    XOR distance to the node is therefore in ``[2**k, 2**(k+1))``.
    """
    flipped = node_id ^ (1 << k)
    lo = (flipped >> k) << k
    return lo, lo + (1 << k)


def bucket_members_range(
    node_id: int, k: int, members: List[int], space: IdSpace
) -> Tuple[int, int]:
    """Index range ``[i, j)`` of bucket-k members in a sorted id list."""
    lo, hi = bucket_bounds(node_id, k, space)
    i = successor_index(members, lo)
    if members[i] < lo:  # wrapped: nothing >= lo
        return 0, 0
    j = i
    while j < len(members) and members[j] < hi:
        j += 1
    return i, j


def choose_bucket_contact(
    node_id: int,
    k: int,
    members: List[int],
    space: IdSpace,
    rng=None,
    count: int = 1,
) -> List[int]:
    """Up to ``count`` contacts from bucket ``k`` over a sorted member list.

    With an ``rng`` the contacts are drawn at random (Kademlia's
    nondeterministic flavour); without one the XOR-closest members are taken.
    """
    i, j = bucket_members_range(node_id, k, members, space)
    candidates = members[i:j]
    if not candidates:
        return []
    if rng is None:
        return sorted(candidates, key=lambda c: space.xor_distance(node_id, c))[:count]
    if len(candidates) <= count:
        return list(candidates)
    return list(rng.sample(candidates, count))


def find_closest(network: DHTNetwork, src: int, key: int, width: int = 3) -> int:
    """Iterative Kademlia node lookup: the XOR-closest node to ``key``.

    Greedy forwarding alone can stop one node short of the global closest
    for a *key* target (the last bucket holds one arbitrary contact), which
    is why Kademlia's FIND_NODE explores a shortlist of the ``width`` best
    candidates in parallel and keeps the closest seen.  Terminates when the
    ``width`` closest known nodes have all been queried.
    """
    space = network.space
    shortlist = {src}
    queried: set = set()
    while True:
        best_known = min(shortlist, key=lambda n: space.xor_distance(n, key))
        frontier = sorted(
            (n for n in shortlist if n not in queried),
            key=lambda n: space.xor_distance(n, key),
        )[:width]
        if not frontier:
            return best_known
        if best_known in queried and space.xor_distance(
            frontier[0], key
        ) > space.xor_distance(best_known, key):
            return best_known
        for node in frontier:
            queried.add(node)
            shortlist.update(network.links[node])


class KademliaNetwork(DHTNetwork):
    """A flat Kademlia network: one (or ``bucket_size``) contacts per bucket."""

    metric = "xor"
    family = "kademlia"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        rng=None,
        bucket_size: int = 1,
    ) -> None:
        super().__init__(space, hierarchy)
        self.rng = rng
        self.bucket_size = bucket_size

    def _use_bulk(self) -> bool:
        # Deterministic multi-contact buckets (rng None, bucket_size > 1)
        # have no bulk form; every other flavour does.
        return super()._use_bulk() and (self.rng is not None or self.bucket_size == 1)

    def _bulk_link_sets(self) -> Edges:
        from ..perf.build import kandy_edges

        # Flat Kademlia is Kandy's per-depth pass over the root ring alone.
        edges, _ = kandy_edges(
            self.node_ids, self.space, None, self.rng, self.bucket_size
        )
        return edges

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        members = self.node_ids
        link_sets: Dict[int, Set[int]] = {}
        for node in members:
            links: Set[int] = set()
            for k in range(self.space.bits):
                links.update(
                    choose_bucket_contact(
                        node, k, members, self.space, self.rng, self.bucket_size
                    )
                )
            link_sets[node] = links
        return link_sets
