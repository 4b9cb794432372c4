"""Flat CAN, generalised to logarithmic degree (Section 3.4).

Node identifiers form a *binary prefix tree*: a binary tree with left
branches labelled 0 and right branches labelled 1; the root-to-leaf path is
the node's ID, so IDs have different lengths.  A node with a short ID stands
for multiple *virtual nodes*, one per padding of its ID to full length.
Edges are hypercube edges between virtual nodes — two (real) nodes are
adjacent iff some pair of their paddings differs in exactly one bit, which
reduces to: their prefixes truncated to the shorter length differ in exactly
one bit position.

Routing is left-to-right bit fixing on the key (equivalently greedy routing
under the XOR metric over padded identifiers): each hop extends the common
prefix with the destination key by at least one bit.

The prefix tree doubles as the partition map: a leaf with prefix p of length
L is responsible for keys in ``[p << (N-L), (p+1) << (N-L))``, and splitting
a leaf on join bisects its partition — exactly the balanced-partition scheme
of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork
from ..core.routing import MAX_HOPS, Route


@dataclass(frozen=True)
class PrefixId:
    """A variable-length binary identifier: ``value`` over ``length`` bits."""

    value: int
    length: int

    def bit(self, i: int) -> int:
        """Bit at position ``i``, counted from the most significant (0)."""
        if not 0 <= i < self.length:
            raise IndexError(f"bit {i} outside prefix of length {self.length}")
        return (self.value >> (self.length - 1 - i)) & 1

    def padded(self, bits: int) -> int:
        """Canonical zero-padding of the prefix to ``bits`` bits."""
        return self.value << (bits - self.length)

    def interval(self, bits: int) -> Tuple[int, int]:
        """The key interval ``[lo, hi)`` owned by this prefix."""
        lo = self.value << (bits - self.length)
        return lo, lo + (1 << (bits - self.length))

    def contains_key(self, key: int, bits: int) -> bool:
        """Whether ``key`` falls in this prefix's owned interval."""
        lo, hi = self.interval(bits)
        return lo <= key < hi

    def child(self, bit: int) -> "PrefixId":
        """The prefix extended by one bit."""
        return PrefixId((self.value << 1) | bit, self.length + 1)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else "ε"


class PrefixTree:
    """The binary prefix tree allocating CAN identifiers.

    Joins split an existing leaf in two (bisecting its partition); leaves are
    the live nodes.  Splitting policy is pluggable: ``"random"`` splits the
    leaf owning a random point (classic CAN join); ``"largest"`` splits a
    largest partition (the balanced scheme of Section 4.3, ratio <= 2 here
    since every split is an exact bisection of a largest cell).
    """

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.leaves: Set[PrefixId] = set()

    def first(self) -> PrefixId:
        """Create the root leaf (the first node owns everything)."""
        if self.leaves:
            raise RuntimeError("tree already has leaves")
        root = PrefixId(0, 0)
        self.leaves.add(root)
        return root

    def leaf_for_key(self, key: int) -> PrefixId:
        """The live leaf whose interval contains ``key``."""
        for leaf in self.leaves:
            if leaf.contains_key(key, self.bits):
                return leaf
        raise KeyError(f"no leaf owns key {key}")

    def split(self, leaf: PrefixId) -> Tuple[PrefixId, PrefixId]:
        """Split ``leaf`` into its two children; returns (old-half, new-half)."""
        if leaf not in self.leaves:
            raise KeyError(f"{leaf} is not a live leaf")
        if leaf.length >= self.bits:
            raise RuntimeError("cannot split a full-length identifier")
        self.leaves.remove(leaf)
        left, right = leaf.child(0), leaf.child(1)
        self.leaves.update((left, right))
        return left, right

    def grow(self, count: int, rng, policy: str = "random") -> List[PrefixId]:
        """Grow the tree to ``count`` leaves via successive joins."""
        if policy not in ("random", "largest"):
            raise ValueError(f"unknown split policy {policy!r}")
        if not self.leaves:
            self.first()
        while len(self.leaves) < count:
            if policy == "largest":
                victim = min(self.leaves, key=lambda leaf: (leaf.length, leaf.value))
            else:
                victim = self.leaf_for_key(rng.randrange(1 << self.bits))
            self.split(victim)
        return sorted(self.leaves, key=lambda leaf: leaf.padded(self.bits))

    def partition_ratio(self) -> float:
        """Largest/smallest partition size over live leaves."""
        lengths = [leaf.length for leaf in self.leaves]
        return float(1 << (max(lengths) - min(lengths))) if lengths else 1.0

    def grow_aligned(self, domain_paths: List[Tuple[str, ...]], rng) -> List[PrefixId]:
        """Allocate one leaf per node with same-domain nodes in one subtree.

        Domains are recursively packed into binary subtrees (two halves with
        balanced node counts), then nodes within a domain split their subtree
        evenly.  Because a domain's nodes occupy a contiguous subtree, every
        hypercube edge for a bit at or below the domain's subtree root stays
        inside the domain — which is what gives Can-Can the intra-domain
        path locality of the other Canon constructions (see DESIGN.md §4).

        Returns the leaf of node i at position i (aligned with
        ``domain_paths``).
        """
        if self.leaves:
            raise RuntimeError("tree already has leaves")
        assignment: Dict[int, PrefixId] = {}
        items = list(enumerate(domain_paths))
        self._assign_aligned(PrefixId(0, 0), items, 0, assignment, rng)
        self.leaves = set(assignment.values())
        if len(self.leaves) != len(domain_paths):
            raise RuntimeError("aligned allocation produced duplicate leaves")
        return [assignment[i] for i in range(len(domain_paths))]

    def _assign_aligned(
        self,
        prefix: PrefixId,
        items: List[Tuple[int, Tuple[str, ...]]],
        depth: int,
        assignment: Dict[int, PrefixId],
        rng,
    ) -> None:
        if len(items) == 1:
            assignment[items[0][0]] = prefix
            return
        if prefix.length >= self.bits:
            raise RuntimeError("identifier space exhausted during alignment")
        groups: Dict[Optional[str], List[Tuple[int, Tuple[str, ...]]]] = {}
        for item in items:
            label = item[1][depth] if depth < len(item[1]) else None
            groups.setdefault(label, []).append(item)
        if len(groups) == 1:
            label = next(iter(groups))
            if label is not None:
                # Single sub-domain: descend without consuming a bit.
                self._assign_aligned(prefix, items, depth + 1, assignment, rng)
                return
            # All nodes at their leaf domain: split counts evenly.
            half = len(items) // 2
            self._assign_aligned(prefix.child(0), items[:half], depth, assignment, rng)
            self._assign_aligned(prefix.child(1), items[half:], depth, assignment, rng)
            return
        # Pack whole groups into two halves with balanced node counts.
        ordered = sorted(groups.values(), key=len, reverse=True)
        left: List[Tuple[int, Tuple[str, ...]]] = []
        right: List[Tuple[int, Tuple[str, ...]]] = []
        for group in ordered:
            (left if len(left) <= len(right) else right).extend(group)
        self._assign_aligned(prefix.child(0), left, depth, assignment, rng)
        self._assign_aligned(prefix.child(1), right, depth, assignment, rng)


def hamming_weight_limited(a: int, b: int) -> int:
    """Hamming distance between two equal-width integers."""
    return bin(a ^ b).count("1")


def are_adjacent(a: PrefixId, b: PrefixId) -> bool:
    """Hypercube adjacency between real nodes via their virtual nodes."""
    short = min(a.length, b.length)
    return hamming_weight_limited(a.value >> (a.length - short),
                                  b.value >> (b.length - short)) == 1


class CANNetwork(DHTNetwork):
    """Flat logarithmic-degree CAN over a prefix tree.

    Node identifiers registered in the hierarchy are the canonical *padded*
    prefix values (disjoint, hence unique).  ``prefixes`` maps each padded id
    back to its :class:`PrefixId`.
    """

    metric = "xor"
    family = "can"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        prefixes: Dict[int, PrefixId],
    ) -> None:
        super().__init__(space, hierarchy)
        missing = set(self.node_ids) - set(prefixes)
        if missing:
            raise ValueError(f"no prefix registered for nodes {sorted(missing)[:5]}")
        self.prefixes = prefixes

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        ids = self.node_ids
        link_sets: Dict[int, Set[int]] = {node: set() for node in ids}
        # All-pairs adjacency; CAN instances in this reproduction are modest
        # (no paper figure depends on CAN scale) and this is the ground-truth
        # hypercube emulation the lowest-domain Can-Can rule is checked against.
        for i, a in enumerate(ids):
            pa = self.prefixes[a]
            for b in ids[i + 1 :]:
                pb = self.prefixes[b]
                if are_adjacent(pa, pb):
                    link_sets[a].add(b)
                    link_sets[b].add(a)
        return link_sets

    # -------------------------------------------------------------- routing

    def responsible_node(self, key: int, within=None) -> int:
        """The leaf whose prefix interval contains ``key``."""
        if within is not None:
            candidates = [n for n in within if self.prefixes[n].contains_key(key, self.space.bits)]
            if not candidates:
                raise KeyError(f"no node in subset owns key {key}")
            return candidates[0]
        for node in self.node_ids:
            if self.prefixes[node].contains_key(key, self.space.bits):
                return node
        raise KeyError(f"no node owns key {key}")

    def route_bitfix(self, src: int, key: int) -> Route:
        """Left-to-right bit fixing toward ``key`` (Section 3.4)."""
        bits = self.space.bits
        path = [src]
        cur = src
        for _ in range(MAX_HOPS):
            prefix = self.prefixes[cur]
            if prefix.contains_key(key, bits):
                return Route(path, True, key)
            nxt = self._bitfix_step(cur, key)
            if nxt is None:
                return Route(path, False, key)
            path.append(nxt)
            cur = nxt
        raise RuntimeError("bit-fixing exceeded the hop bound; broken network")

    def _effective_lcp(self, node: int, key: int) -> int:
        """Progress measure: common prefix of ``key`` with the node's *real* bits.

        Padding bits beyond a short prefix carry no routing information, so
        agreement is capped at the prefix length; a node whose effective LCP
        equals its prefix length owns the key.
        """
        prefix = self.prefixes[node]
        raw = _common_prefix_len(prefix.padded(self.space.bits), key, self.space.bits)
        return min(raw, prefix.length)

    def _bitfix_step(self, cur: int, key: int) -> Optional[int]:
        """Neighbor extending the common prefix with ``key``; must improve.

        Existence is guaranteed by tree fullness: if the current node first
        disagrees with the key at bit e, some adjacent node lies in the
        sibling subtree at depth e and agrees with the key through bit e.
        """
        cur_lcp = self._effective_lcp(cur, key)
        best, best_lcp = None, cur_lcp
        for nb in self.links[cur]:
            lcp = self._effective_lcp(nb, key)
            if lcp > best_lcp:
                best, best_lcp = nb, lcp
        return best


def _common_prefix_len(a: int, b: int, bits: int) -> int:
    """Length of the common binary prefix of two ``bits``-wide integers."""
    diff = a ^ b
    if diff == 0:
        return bits
    return bits - diff.bit_length()


def build_can(
    space: IdSpace,
    count: int,
    rng,
    policy: str = "random",
    domain_paths: Optional[List[Tuple[str, ...]]] = None,
) -> CANNetwork:
    """Convenience constructor: grow a prefix tree and build the CAN over it.

    ``domain_paths``, if given, assigns the i-th allocated node to the i-th
    path (for hierarchical placements reused by Can-Can); otherwise all nodes
    are placed at the root domain.
    """
    tree = PrefixTree(space.bits)
    leaves = tree.grow(count, rng, policy)
    hierarchy = Hierarchy()
    prefixes: Dict[int, PrefixId] = {}
    for i, leaf in enumerate(leaves):
        padded = leaf.padded(space.bits)
        prefixes[padded] = leaf
        path = domain_paths[i] if domain_paths else ()
        hierarchy.place(padded, path)
    return CANNetwork(space, hierarchy, prefixes).build()
