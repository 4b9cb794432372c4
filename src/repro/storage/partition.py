"""Partition balance via smart ID selection (Section 4.3).

Random ID selection leaves a Theta(log^2 n) ratio between the largest and
smallest partitions of the hash space.  The paper's scheme (Manku & Ganesan)
reduces the ratio to a constant of 4 w.h.p. with O(log n) join messages:

  A joining node picks a random ID, routes to the node n' responsible for
  it, examines the nodes sharing a B-bit ID prefix with n' (B chosen so only
  a logarithmic number of nodes share it), and **bisects the largest
  partition** among them; the bisection point becomes its ID.  Partitions
  and IDs then form a binary tree.  Deletions are handled symmetrically.

For hierarchies, global balance alone does not balance each level.  The
hierarchical variant additionally spreads the *top* ~log2(c) ID bits of the
c members of each lowest-level domain as far apart as possible (first node
0..., second 1..., third 00/11..., ...; Section 4.3), which the paper states
suffices to balance every level.  We realise the spreading with the
bit-reversed counter (van der Corput sequence), which maximises the minimum
pairwise prefix distance; the remaining bits are chosen by bisection within
the prefix cell.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List

from ..core.hierarchy import DomainPath, Hierarchy
from ..core.idspace import IdSpace, predecessor_index


class BalancedIdAllocator:
    """Bisection-based ID allocation over a single ring.

    Tracks the live IDs in sorted order; :meth:`join` returns the ID a new
    node should adopt, :meth:`leave` retires one.  The max/min partition
    ratio stays bounded by a small constant (4 w.h.p. in the paper; exactly
    <= 4 in every randomized run we test), versus Theta(log^2 n) for random
    IDs.
    """

    def __init__(self, space: IdSpace, rng) -> None:
        self.space = space
        self.rng = rng
        self.ids: List[int] = []

    def __len__(self) -> int:
        return len(self.ids)

    def _prefix_bits(self) -> int:
        """B such that ~4*log2(n) nodes share each B-bit prefix.

        The paper only requires a logarithmic cohort; empirically a cohort
        of ~log n occasionally misses the largest partition class (ratio 8),
        while ~4 log n achieves the claimed ratio of 4 w.h.p.
        """
        count = len(self.ids)
        if count < 4:
            return 0
        return max(0, int(math.log2(count / max(1.0, math.log2(count)))) - 2)

    def partition_size(self, node_id: int) -> int:
        """Size of the partition [node, successor) managed by a node."""
        pos = self.ids.index(node_id)
        nxt = self.ids[(pos + 1) % len(self.ids)]
        return self.space.ring_distance(node_id, nxt) or self.space.size

    def join(self) -> int:
        """Allocate an ID for a joining node and insert it."""
        if not self.ids:
            first = self.space.random_id(self.rng)
            self.ids.append(first)
            return first
        probe = self.space.random_id(self.rng)
        anchor = self.ids[predecessor_index(self.ids, probe)]
        prefix_bits = self._prefix_bits()
        prefix = self.space.prefix(anchor, prefix_bits)
        cohort = [
            i for i in self.ids if self.space.prefix(i, prefix_bits) == prefix
        ]
        victim = max(cohort, key=self.partition_size)
        new_id = self.space.add(victim, self.partition_size(victim) // 2)
        if new_id in set(self.ids):
            raise RuntimeError("identifier space exhausted in this region")
        bisect.insort(self.ids, new_id)
        return new_id

    def leave(self, node_id: int) -> None:
        """Retire an ID (its partition merges into its predecessor's)."""
        self.ids.remove(node_id)

    def partition_ratio(self) -> float:
        """Largest/smallest partition over live nodes."""
        if len(self.ids) < 2:
            return 1.0
        sizes = [self.partition_size(i) for i in self.ids]
        return max(sizes) / min(sizes)


def random_partition_ratio(space: IdSpace, count: int, rng) -> float:
    """Baseline: the partition ratio under plain random ID selection."""
    ids = sorted(space.random_ids(count, rng))
    sizes = [
        space.ring_distance(ids[i], ids[(i + 1) % count]) or space.size
        for i in range(count)
    ]
    return max(sizes) / max(1, min(sizes))


def bit_reverse(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value`` (van der Corput index)."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class HierarchicalIdAllocator:
    """Per-domain prefix spreading + bisection suffixes (Section 4.3).

    The j-th node to join a lowest-level domain takes a top-bit prefix from
    the bit-reversed counter at the current width ``ceil(log2(j+1))`` —
    guaranteeing members of every domain are maximally spread at every
    prefix length — and fills the remaining bits by bisecting the largest
    gap among same-prefix domain members (falling back to random bits for
    the first member of a cell).

    Balance at the lowest level propagates to all levels of the hierarchy;
    :meth:`level_ratio` lets tests verify this directly.
    """

    #: prefix width ceiling; wider prefixes than this carry no extra balance.
    MAX_SPREAD_BITS = 24

    def __init__(self, space: IdSpace, rng) -> None:
        self.space = space
        self.rng = rng
        self.hierarchy = Hierarchy()
        self._join_counter: Dict[DomainPath, int] = {}

    def join(self, domain: DomainPath) -> int:
        """Allocate an ID for a node joining the given lowest-level domain."""
        index = self._join_counter.get(domain, 0)
        self._join_counter[domain] = index + 1
        width = min(self.MAX_SPREAD_BITS, max(1, (index + 1).bit_length()))
        prefix = bit_reverse(index % (1 << width), width)
        suffix_bits = self.space.bits - width
        cell_lo = prefix << suffix_bits
        # Bisect against *every* node already in the cell (domains share the
        # bit-reversed prefix sequence), so the global ring is a bisection
        # tree too; per-domain balance comes from the prefix spreading.
        members = [
            i
            for i in self.hierarchy.sorted_members(())
            if self.space.prefix(i, width) == prefix
        ]
        node_id = self._fill_cell(cell_lo, suffix_bits, members)
        self.hierarchy.place(node_id, domain)
        return node_id

    def _fill_cell(self, cell_lo: int, suffix_bits: int, members: List[int]) -> int:
        """Bisect the largest gap of the cell (midpoint when the cell is empty).

        Both cell boundaries participate, so positions form a deterministic
        bisection lattice; distinct domains landing in the same cell simply
        split it further instead of colliding.
        """
        cell_size = 1 << suffix_bits
        if not members:
            return cell_lo + cell_size // 2
        boundaries = [cell_lo] + sorted(members) + [cell_lo + cell_size]
        best_gap, start = max(
            (nxt - cur, cur) for cur, nxt in zip(boundaries, boundaries[1:])
        )
        if best_gap < 2:
            raise RuntimeError("identifier cell exhausted")
        candidate = start + best_gap // 2
        if candidate in self.hierarchy:
            raise RuntimeError("identifier cell exhausted")
        return candidate

    def leave(self, node_id: int) -> None:
        """Retire a node from its domain."""
        self.hierarchy.remove(node_id)

    def level_ratio(self, domain: DomainPath = ()) -> float:
        """Partition ratio of the ring formed by one domain's members."""
        members = self.hierarchy.sorted_members(domain)
        if len(members) < 2:
            return 1.0
        sizes = [
            self.space.ring_distance(members[i], members[(i + 1) % len(members)])
            or self.space.size
            for i in range(len(members))
        ]
        return max(sizes) / max(1, min(sizes))
