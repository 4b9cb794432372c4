"""Can-Can — the Canonical version of CAN (Section 3.4).

"Traditional CAN edges are constructed at the lowest level of the hierarchy,
and a node creates a link at a higher level only if it is a valid CAN edge
and is shorter than the shortest link at the lower level."

As with Kandy (see that module's interpretation note and DESIGN.md §4), the
sound reading for a symmetric metric is *per dimension*: for each bit
position i of its identifier, a node links into the sibling subtree at depth
i using a valid CAN (hypercube) edge taken from the **lowest enclosing domain
that contains one**.  Higher-level edges are therefore created only for the
dimensions the local domain cannot cover, which is exactly the Canon economy:
total degree matches flat CAN's dimension count while paths between
same-domain nodes stay inside the domain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from .can import CANNetwork, PrefixId, PrefixTree


def differing_bit(a: PrefixId, b: PrefixId) -> Optional[int]:
    """The single differing bit position between adjacent prefixes.

    Returns ``None`` when the prefixes are not hypercube-adjacent.
    """
    short = min(a.length, b.length)
    diff = (a.value >> (a.length - short)) ^ (b.value >> (b.length - short))
    if diff == 0 or diff & (diff - 1):
        return None
    return short - diff.bit_length()


class CanCanNetwork(CANNetwork):
    """Can-Can: lowest-domain hypercube edge per identifier bit.

    Inherits bit-fixing routing and key responsibility from
    :class:`~repro.dhts.can.CANNetwork`; only link construction differs.
    """

    family = "cancan"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        prefixes: Dict[int, PrefixId],
        rng=None,
    ) -> None:
        super().__init__(space, hierarchy, prefixes)
        self.rng = rng
        #: node -> bit position -> depth of the domain the edge came from.
        self.edge_depth: Dict[int, Dict[int, int]] = {}

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        link_sets: Dict[int, Set[int]] = {node: set() for node in self.node_ids}
        self.edge_depth = {}
        for node in self.node_ids:
            prefix = self.prefixes[node]
            chosen: Dict[int, int] = {}
            depths: Dict[int, int] = {}
            for domain_path in self.hierarchy.ancestor_chain(node):
                members = self.hierarchy.sorted_members(domain_path)
                candidates = self._adjacent_by_bit(node, prefix, members)
                for bit, options in candidates.items():
                    if bit in chosen:
                        continue  # already covered by a lower (more local) domain
                    chosen[bit] = (
                        self.rng.choice(options) if self.rng else options[0]
                    )
                    depths[bit] = len(domain_path)
            link_sets[node].update(chosen.values())
            self.edge_depth[node] = depths
        return link_sets

    def _adjacent_by_bit(
        self, node: int, prefix: PrefixId, members: List[int]
    ) -> Dict[int, List[int]]:
        """Hypercube-adjacent members of a domain, grouped by differing bit."""
        out: Dict[int, List[int]] = {}
        for other in members:
            if other == node:
                continue
            bit = differing_bit(prefix, self.prefixes[other])
            if bit is not None:
                out.setdefault(bit, []).append(other)
        return out


def build_cancan(
    space: IdSpace,
    count: int,
    rng,
    domain_paths: List[Tuple[str, ...]],
    align_domains: bool = True,
) -> CanCanNetwork:
    """Grow a prefix tree and build a Can-Can over the given placements.

    With ``align_domains`` (the default), identifiers are allocated so each
    domain owns a contiguous subtree of the prefix tree — CAN's equivalent of
    "nodes in a domain form a DHT by themselves", and the precondition for
    strict intra-domain path locality (a hypercube edge fixing a bit inside
    the domain's subtree cannot leave the subtree).  Without it, classic
    random-point splits are used and locality is only statistical.
    """
    if len(domain_paths) != count:
        raise ValueError("need exactly one domain path per node")
    tree = PrefixTree(space.bits)
    if align_domains:
        leaves = tree.grow_aligned(domain_paths, rng)
    else:
        leaves = tree.grow(count, rng)
    hierarchy = Hierarchy()
    prefixes: Dict[int, PrefixId] = {}
    for i, leaf in enumerate(leaves):
        padded = leaf.padded(space.bits)
        prefixes[padded] = leaf
        hierarchy.place(padded, domain_paths[i])
    return CanCanNetwork(space, hierarchy, prefixes, rng).build()
