"""Group-based adaptation to physical-network proximity (Section 3.6).

Nodes are conceptually grouped by the top T bits of their identifier.  The
DHT's edge-creation rules are applied to *group IDs*: a node required to
connect to group x+2**k may connect to **any** node of that group — and picks
a physically nearby one (random sampling of s ~ 32 members and keeping the
best is sufficient per the Internet measurements the paper cites).  Nodes
within a group are densely connected (needed anyway for replication and
fault tolerance), so routing happens in two stages: between groups to reach
the destination's group, then one intra-group hop.

T is chosen so each group holds a small constant number of nodes regardless
of system size; every node can compute T independently from a population
estimate.

- :class:`ProximityChordNetwork` — *Chord (Prox.)*: Chord built on groups.
- :class:`ProximityCrescendoNetwork` — *Crescendo (Prox.)*: ordinary
  Crescendo rings below the root; group-based construction for the top-level
  merge only (the level that no longer reflects physical proximity).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace, predecessor_index, successor_index
from ..core.network import DHTNetwork, Edges
from ..core.routing import MAX_HOPS, Route, _traced
from ..dhts.crescendo import CrescendoNetwork, canon_rings
from ..perf.latency import latency_table_of

LatencyFn = Callable[[int, int], float]

#: Paper-cited sample size sufficient to find a nearby node.
DEFAULT_SAMPLE = 32
#: Target expected nodes per group.
DEFAULT_GROUP_TARGET = 8


def group_prefix_bits(population: int, group_target: int = DEFAULT_GROUP_TARGET) -> int:
    """Prefix length T giving ~``group_target`` expected nodes per group."""
    if population <= group_target:
        return 0
    return max(0, round(math.log2(population / group_target)))


class _GroupIndex:
    """Shared group bookkeeping for the proximity-adapted networks."""

    def __init__(self, space: IdSpace, node_ids: List[int], prefix_bits: int) -> None:
        self.space = space
        self.prefix_bits = prefix_bits
        self.members: Dict[int, List[int]] = {}
        for node in node_ids:  # node_ids sorted => member lists sorted
            self.members.setdefault(space.prefix(node, prefix_bits), []).append(node)
        self.group_ids: List[int] = sorted(self.members)

    def group_of(self, node: int) -> int:
        return self.space.prefix(node, self.prefix_bits)

    def existing_group_at_or_after(self, group: int) -> int:
        """The group itself, or the next (cyclic) non-empty group."""
        return self.group_ids[successor_index(self.group_ids, group)]

    def group_distance(self, a: int, b: int) -> int:
        return (b - a) % (1 << self.prefix_bits) if self.prefix_bits else 0

    def best_member(
        self,
        src: int,
        group: int,
        latency_fn: LatencyFn,
        rng,
        sample: int = DEFAULT_SAMPLE,
    ) -> Optional[int]:
        """The latency-best of up to ``sample`` random members of a group."""
        candidates = [m for m in self.members[group] if m != src]
        if not candidates:
            return None
        if len(candidates) > sample:
            candidates = rng.sample(candidates, sample)
        return min(candidates, key=lambda c: latency_fn(src, c))


class ProximityChordNetwork(DHTNetwork):
    """Chord (Prox.): the Chord rule applied to T-bit prefix groups.

    Each node connects to one (physically nearby) member of group
    ``g + 2**k`` for every ``0 <= k < T`` (next non-empty group when that one
    is vacant), plus densely to its own group.  Route with
    :func:`route_grouped`.
    """

    metric = "ring"
    family = "chord-prox"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        latency_fn: LatencyFn,
        rng,
        group_target: int = DEFAULT_GROUP_TARGET,
        sample: int = DEFAULT_SAMPLE,
    ) -> None:
        super().__init__(space, hierarchy)
        self.latency_fn = latency_fn
        self.rng = rng
        self.sample = sample
        self.prefix_bits = group_prefix_bits(self.size, group_target)
        self.groups = _GroupIndex(space, self.node_ids, self.prefix_bits)

    def _use_bulk(self) -> bool:
        # The bulk picks draw nothing, so they need inputs where the
        # reference draws nothing either: no group outgrows ``sample``
        # (``best_member`` then scans every member), and a latency table
        # stands behind ``latency_fn`` to gather from.
        return (
            super()._use_bulk()
            and self.prefix_bits > 0
            and max(map(len, self.groups.members.values())) <= self.sample
            and latency_table_of(self.latency_fn) is not None
        )

    def _bulk_link_sets(self) -> Edges:
        # Groups are runs of one id prefix in the sorted ids.
        n = self.size
        shift = np.uint64(self.space.bits - self.prefix_bits)
        own = (self.id_array >> shift).astype(np.int64)
        group_ids, starts, group_of, counts = np.unique(
            own, return_index=True, return_inverse=True, return_counts=True
        )
        # Dense intra-group links: each node to every member of its group
        # (the self-link drops out at install).
        fan = counts[group_of]
        src = [np.repeat(np.arange(n), fan)]
        offsets = np.arange(src[0].size) - np.repeat(np.cumsum(fan) - fan, fan)
        dst = [np.repeat(starts[group_of], fan) + offsets]
        # Octave k: the latency-best member of the next non-empty group at
        # or after own + 2**k; argmin's first minimum is ``min``'s.
        table = latency_table_of(self.latency_fn)
        routers = table.aligned_routers(self.id_array)
        span = np.arange(counts.max())
        for k in range(self.prefix_bits):
            want = (own + (1 << k)) % (1 << self.prefix_bits)
            target = np.searchsorted(group_ids, want) % group_ids.size
            far = np.flatnonzero(group_ids[target] != own)
            target = target[far]
            members = span < counts[target, None]
            cand = starts[target, None] + np.where(members, span, 0)
            ms = table.hop2_ms + table.matrix[
                routers[far, None], routers[cand]
            ].astype(np.float64)
            ms[~members] = np.inf
            src.append(far)
            dst.append(cand[np.arange(far.size), ms.argmin(axis=1)])
        return np.concatenate(src), np.concatenate(dst)

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        link_sets: Dict[int, Set[int]] = {node: set() for node in self.node_ids}
        groups = self.groups
        for node in self.node_ids:
            own = groups.group_of(node)
            # Dense intra-group structure (one-hop final stage).
            link_sets[node].update(m for m in groups.members[own] if m != node)
            for k in range(self.prefix_bits):
                target = groups.existing_group_at_or_after(
                    (own + (1 << k)) % (1 << self.prefix_bits)
                )
                if target == own:
                    continue
                best = groups.best_member(
                    node, target, self.latency_fn, self.rng, self.sample
                )
                if best is not None:
                    link_sets[node].add(best)
        return link_sets


class ProximityCrescendoNetwork(CrescendoNetwork):
    """Crescendo (Prox.): group-based construction at the top level only.

    Rings below the root are built exactly as in Crescendo (they already
    reflect physical proximity; the bulk build sweeps them depth by depth);
    the top-level merge creates group links —
    for each octave k below the node's own-ring gap *measured in group
    space*, a link to a physically nearby member of group ``g + 2**k`` —
    plus a dense intra-group graph.
    """

    family = "crescendo-prox"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        latency_fn: LatencyFn,
        rng,
        group_target: int = DEFAULT_GROUP_TARGET,
        sample: int = DEFAULT_SAMPLE,
    ) -> None:
        super().__init__(space, hierarchy)
        self.latency_fn = latency_fn
        self.rng = rng
        self.sample = sample
        self.prefix_bits = group_prefix_bits(self.size, group_target)
        self.groups = _GroupIndex(space, self.node_ids, self.prefix_bits)

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        link_sets, self.gap, self.level_successors = canon_rings(
            self, self._fingers, root=self._root_links
        )
        return link_sets

    def _bulk_link_sets(self) -> Edges:
        # The per-depth sweep builds every ring below the root; the root
        # merge is this family's own, and its links join the sweep's
        # before the one install.
        src, dst = self._sweep_rings(floor=1)
        top = {
            node: self._root_links(node, self.node_ids, self.gap[node])
            for node in self.node_ids
        }
        self._record_level(self.node_ids)
        top_src, top_dst = self._set_edges(top)
        return np.concatenate([src, top_src]), np.concatenate([dst, top_dst])

    def _record_level(self, members: List[int]) -> None:
        """Record each member's successor in this ring (its new leaf set)."""
        count = len(members)
        for pos, node in enumerate(members):
            succ = members[(pos + 1) % count]
            self.level_successors[node].append(succ)
            self.gap[node] = (
                self.space.ring_distance(node, succ) if succ != node else self.space.size
            )

    def _root_links(self, node: int, members: List[int], gap: int) -> Set[int]:
        """The root merge's rule: the node's whole group, then one nearby
        member of each group ``g + 2**k`` closer than its own-ring gap."""
        groups = self.groups
        group_count = 1 << self.prefix_bits
        own = groups.group_of(node)
        links = {m for m in groups.members[own] if m != node}
        # Condition (b) in group space: only link to groups closer than
        # the group of the node's own-ring successor.
        if gap >= self.space.size:
            group_gap = group_count
        else:
            successor = self.space.add(node, gap)
            group_gap = groups.group_distance(own, groups.group_of(successor))
            if group_gap == 0:
                return links  # own-ring successor in the same group: covered
        k = 0
        while (1 << k) < max(group_gap, 1) and k < self.prefix_bits:
            target = groups.existing_group_at_or_after(
                (own + (1 << k)) % group_count
            )
            distance = groups.group_distance(own, target)
            if 0 < distance < group_gap:
                best = groups.best_member(
                    node, target, self.latency_fn, self.rng, self.sample
                )
                if best is not None:
                    links.add(best)
            k += 1
        return links


def route_grouped(network, src: int, dest_key: int, tracer=None) -> Route:
    """Two-stage routing for proximity-adapted networks (Section 3.6).

    Stage 1: greedy clockwise toward the *end* of the destination group's
    identifier range — a hop may land anywhere inside an intermediate group
    without being counted as overshoot.  Stage 2: once inside the responsible
    node's group, the dense intra-group structure finishes in one hop.
    Works for both ``ProximityChordNetwork`` and
    ``ProximityCrescendoNetwork`` (whose lower-level Crescendo links simply
    participate in stage 1).  A ``tracer`` (:mod:`repro.obs.trace`) records
    the finished route; it never influences routing decisions.
    """
    space = network.space
    groups = network.groups
    responsible = network.responsible_node(dest_key)
    dest_group = groups.group_of(responsible)
    suffix_bits = space.bits - network.prefix_bits
    upper = ((dest_group + 1) << suffix_bits) - 1  # last id of the dest group

    path = [src]
    cur = src
    for _ in range(MAX_HOPS):
        if cur == responsible:
            return _traced(Route(path, True, dest_key), network, tracer)
        if groups.group_of(cur) == dest_group:
            # Final stage: dense intra-group links reach the responsible node.
            if responsible in network.links[cur] or responsible == cur:
                path.append(responsible)
                return _traced(Route(path, True, dest_key), network, tracer)
            return _traced(Route(path, False, dest_key), network, tracer)
        remaining = space.ring_distance(cur, upper)
        best, best_dist = None, 0
        neighbors = network.links[cur]
        cand = neighbors[predecessor_index(neighbors, upper)] if neighbors else None
        if cand is not None:
            dist = space.ring_distance(cur, cand)
            if 0 < dist <= remaining:
                best, best_dist = cand, dist
        if best is None:
            return _traced(Route(path, False, dest_key), network, tracer)
        path.append(best)
        cur = best
    raise RuntimeError(f"routing exceeded {MAX_HOPS} hops: likely a broken network")
