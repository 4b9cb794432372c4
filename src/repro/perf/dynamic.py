"""Fast path for dynamic maintenance: the churn counterpart of ``perf.build``.

The reference engine (:class:`repro.simulation.protocol.SimulatedCrescendo`)
answers every membership question by scanning the hierarchy and every
greedy hop by scanning a contact *set*.  Every protocol routine — joins,
leaves, stabilization, lookups, every branch and every message — exists
once, in the base class.  :class:`FastSimulatedCrescendo` overrides only
the primitives those routines call:

- Membership queries (``live_view``, ``live_members``,
  ``_ring_has_live_peer``, ``_first_live_member``) read :class:`NodeArena`:
  one sorted live-id array per ring (every hierarchy prefix), kept in sync
  through the base class's membership hooks, plus insertion-order member
  tables mirroring the bootstrap directory.  O(n) scans become array
  searches.
- The greedy next hop (``_best_hop``, the one primitive under both
  ``_find_predecessor`` and ``lookup``) and the finger hints
  (``_finger_hints``) read a cached sorted contact array per node and
  level.  The reference's argmax over ``(contact - cur) % size <=
  remaining`` is exactly the cyclic predecessor of the key among the
  contacts, found with one bisect and a short backward scan over dead
  entries, so hop sequences — and message counts — are identical.
- Quiescent-ring memoization (``_stabilize_ring``): a per-``(node,
  level)`` stabilization step that wrote nothing is a pure function of
  the node states it read.  The engine records that read set (every
  aliveness check through ``_observe_live`` and every node whose contacts
  ``_best_hop`` consulted) with the per-kind message counts the step
  emitted.  While no node in the read set is touched, crashed or purged,
  re-executing the step would do exactly what it did before, so the
  engine replays the recorded counts and skips the walks.  Any write fires
  ``_touch`` on the written node, which drops exactly the memos that read
  it; ring-emptiness (the one membership read on the quiescent path) is
  re-validated in O(1) at replay time.
- Link caches: ``static_links`` is cached until the next state write and
  ``oracle_links`` (built by the vectorized bulk constructor, link-for-link
  identical for Crescendo) until the next membership change.

Equivalence is not assumed but enforced:
:func:`repro.verify.oracles.compare_protocols` replays identical schedules
through both engines and requires identical delivery outcomes, per-kind
message counts and final link tables, and the churn fuzzer replays every
schedule on both engines in lockstep.  The fast engine is the one that
runs; the reference is built only by those oracles and by tests, through
:func:`make_protocol`'s ``engine`` argument.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.hierarchy import DomainPath
from ..core.idspace import IdSpace
from ..simulation.protocol import ProtocolNode, SimulatedCrescendo

def make_protocol(
    space: IdSpace, engine: str = "fast", **kwargs
) -> SimulatedCrescendo:
    """A maintenance protocol instance on the named engine.

    ``engine`` is ``"fast"`` (:class:`FastSimulatedCrescendo`) or
    ``"reference"`` (:class:`~repro.simulation.protocol.SimulatedCrescendo`);
    keyword arguments pass through to the protocol constructor.
    """
    if engine == "fast":
        return FastSimulatedCrescendo(space, **kwargs)
    if engine == "reference":
        return SimulatedCrescendo(space, **kwargs)
    raise ValueError(
        f"unknown engine {engine!r}; expected 'fast' or 'reference'"
    )


class NodeArena:
    """Structure-of-arrays membership index behind the fast engine.

    Per hierarchy prefix (every ring at every level, the root ring at key
    ``()``), a sorted array of the ring's *live* member ids — maintained
    incrementally on join/crash/forget instead of re-sorted per query —
    plus an insertion-order member table per prefix that mirrors
    ``Hierarchy.members`` (the bootstrap directory's answer must not
    depend on the engine, and that answer is insertion-ordered).
    """

    def __init__(self) -> None:
        #: prefix -> sorted live member ids (the per-level leaf-set arrays).
        self._rings: Dict[DomainPath, List[int]] = {}
        #: prefix -> insertion-ordered members (dict-as-ordered-set); holds
        #: crashed-but-unpurged nodes too, exactly like the hierarchy.
        self._order: Dict[DomainPath, Dict[int, None]] = {}
        self._paths: Dict[int, DomainPath] = {}
        self._live: Set[int] = set()

    def add(self, node_id: int, path: DomainPath) -> None:
        """Register a live node under every prefix of ``path``."""
        if node_id in self._paths:
            return
        self._paths[node_id] = path
        self._live.add(node_id)
        for depth in range(len(path) + 1):
            prefix = path[:depth]
            ring = self._rings.get(prefix)
            if ring is None:
                ring = self._rings[prefix] = []
                self._order[prefix] = {}
            insort(ring, node_id)
            self._order[prefix][node_id] = None

    def crash(self, node_id: int) -> None:
        """Drop a node from the live arrays (it stays in insertion order)."""
        if node_id not in self._live:
            return
        self._live.discard(node_id)
        path = self._paths[node_id]
        for depth in range(len(path) + 1):
            ring = self._rings[path[:depth]]
            del ring[bisect_left(ring, node_id)]

    def revive(self, node_id: int) -> None:
        """Re-insert a crashed-but-unforgotten node into the live arrays.

        The inverse of :meth:`crash`, used when a partition heals: the
        node's path registration survived the suspension, so the sorted
        ring arrays are rebuilt by insertion only.
        """
        if node_id in self._live or node_id not in self._paths:
            return
        self._live.add(node_id)
        path = self._paths[node_id]
        for depth in range(len(path) + 1):
            insort(self._rings[path[:depth]], node_id)

    def remove(self, node_id: int, path: DomainPath) -> None:
        """Forget a node entirely (idempotent after :meth:`crash`)."""
        self.crash(node_id)
        if self._paths.pop(node_id, None) is None:
            return
        for depth in range(len(path) + 1):
            self._order[path[:depth]].pop(node_id, None)

    def ring_members(self, prefix: DomainPath) -> List[int]:
        """Sorted live members of the ring at ``prefix`` (shared view)."""
        return self._rings.get(prefix, [])

    def ordered_members(self, prefix: DomainPath) -> Sequence[int]:
        """Members of ``prefix`` in insertion order (crashed included)."""
        return self._order.get(prefix, {}).keys()


class FastSimulatedCrescendo(SimulatedCrescendo):
    """:class:`SimulatedCrescendo` on array-backed state — same protocol,
    same messages, faster primitives (see the module docstring).
    """

    engine = "fast"

    def __init__(self, space: IdSpace, **kwargs):
        super().__init__(space, **kwargs)
        self.arena = NodeArena()
        #: node id -> depth -> sorted contact array (dropped on _touch).
        self._contact_cache: Dict[int, Dict[int, List[int]]] = {}
        #: bumped on every state write (touch or membership change).
        self._epoch = 0
        #: bumped on membership changes only (keys the oracle cache).
        self._members_epoch = 0
        #: read-set collector, non-None only inside a tracked stabilize step.
        self._reads: Optional[Set[int]] = None
        #: (node, depth) -> (per-kind message counts, ring-had-live-peer).
        self._stab_memo: Dict[Tuple[int, int], Tuple[Dict[str, int], bool]] = {}
        #: read node -> memo keys that depended on it (invalidation index).
        self._stab_deps: Dict[int, Set[Tuple[int, int]]] = {}
        self._static_cache: Optional[Tuple[int, Dict[int, List[int]]]] = None
        self._oracle_cache: Optional[Tuple[int, Dict[int, List[int]]]] = None

    # ----------------------------------------------------- membership hooks

    def _membership_added(self, node: ProtocolNode) -> None:
        super()._membership_added(node)
        self.arena.add(node.node_id, node.path)
        self._epoch += 1
        self._members_epoch += 1
        # A fresh node was read by no prior stabilize step, so no memo can
        # depend on it; ring-emptiness flips are re-validated at replay.

    def _membership_crashed(self, node: ProtocolNode) -> None:
        super()._membership_crashed(node)
        self.arena.crash(node.node_id)
        self._epoch += 1
        self._members_epoch += 1
        self._invalidate(node.node_id)

    def _membership_revived(self, node: ProtocolNode) -> None:
        super()._membership_revived(node)
        self.arena.revive(node.node_id)
        self._epoch += 1
        self._members_epoch += 1
        # Same invalidation discipline as a crash, in reverse: any memoized
        # stabilize step that read this node (even as a dead contact) may
        # now behave differently, so its memo must go.
        self._invalidate(node.node_id)

    def _membership_removed(self, node_id: int, path: DomainPath) -> None:
        super()._membership_removed(node_id, path)
        self.arena.remove(node_id, path)
        self._epoch += 1
        self._members_epoch += 1
        self._invalidate(node_id)
        for depth in range(len(path) + 1):
            self._stab_memo.pop((node_id, depth), None)

    def _touch(self, node_id: int) -> None:
        self._view_dirty.add(node_id)
        self._contact_cache.pop(node_id, None)
        self._epoch += 1
        self._invalidate(node_id)

    def _invalidate(self, node_id: int) -> None:
        """Drop every memoized stabilize step that read ``node_id``."""
        keys = self._stab_deps.pop(node_id, None)
        if keys:
            memo = self._stab_memo
            for key in keys:
                memo.pop(key, None)

    def _observe_live(self, node_id: Optional[int]) -> bool:
        if node_id is None:
            return False
        reads = self._reads
        if reads is not None:
            reads.add(node_id)
        peer = self.nodes.get(node_id)
        return peer is not None and peer.alive

    # ------------------------------------------------------------ live views

    def live_view(self) -> Sequence[int]:
        """Sorted live node ids, served from the arena's root ring."""
        return self.arena.ring_members(())

    # ---------------------------------------------------- membership queries

    def _ring_has_live_peer(self, prefix: DomainPath, exclude: int) -> bool:
        ring = self.arena.ring_members(prefix)
        return len(ring) > 1 or (len(ring) == 1 and ring[0] != exclude)

    def _first_live_member(
        self, prefix: DomainPath, exclude: Optional[int] = None
    ) -> Optional[int]:
        # Same insertion-order semantics as the base, but iterating the
        # arena's ordered table lazily instead of copying the hierarchy's
        # member list per call.
        nodes = self.nodes
        for n in self.arena.ordered_members(prefix):
            if n != exclude and nodes[n].alive:
                return n
        return None

    def live_members(self, prefix: DomainPath) -> List[int]:
        """Sorted live members of a ring: the arena's array, shared."""
        return self.arena.ring_members(prefix)

    # ------------------------------------------------------------ navigation

    def _sorted_contacts(self, node_id: int, depth: int) -> List[int]:
        """The node's ring contacts (see ``_ring_contacts``) as a sorted
        list, cached until the node's next ``_touch``."""
        per_node = self._contact_cache.get(node_id)
        if per_node is None:
            per_node = self._contact_cache[node_id] = {}
        out = per_node.get(depth)
        if out is None:
            out = per_node[depth] = sorted(
                self._ring_contacts(self.nodes[node_id], depth)
            )
        return out

    def _finger_hints(
        self, node: ProtocolNode, pred_id: int, depth: int
    ) -> List[int]:
        # Same sorted result as the base's set construction, assembled
        # from the cached sorted contact array with two bisects.
        hints = list(self._sorted_contacts(pred_id, depth))
        i = bisect_left(hints, node.node_id)
        if i < len(hints) and hints[i] == node.node_id:
            hints.pop(i)
        j = bisect_left(hints, pred_id)
        if j >= len(hints) or hints[j] != pred_id:
            hints.insert(j, pred_id)
        return hints

    def _best_hop(
        self, node_id: int, depth: int, key: int, exclude: Optional[int]
    ) -> Optional[int]:
        """The reference's argmax scan as a binary search.

        The contact maximizing ``(c - node_id) % size`` subject to that
        distance being in ``(0, remaining]`` is the cyclic predecessor of
        ``key`` among the contacts; dead or excluded entries are skipped
        by stepping further backward, which visits candidates in strictly
        decreasing distance until the arc ``(node_id, key]`` is exhausted.
        The node and every candidate aliveness read join the read set.
        """
        reads = self._reads
        if reads is not None:
            reads.add(node_id)
        contacts = self._sorted_contacts(node_id, depth)
        if not contacts:
            return None
        nodes = self.nodes
        size = self.space.size
        remaining = (key - node_id) % size
        # bisect_right - 1 is predecessor_index at C speed: -1 (all
        # contacts above the key) is the cyclic wrap to the last entry,
        # which Python's negative indexing already performs.
        idx = bisect_right(contacts, key) - 1
        for back in range(len(contacts)):
            cand = contacts[idx - back]
            if not 0 < (cand - node_id) % size <= remaining:
                break
            if cand == exclude:
                continue
            if reads is not None:
                reads.add(cand)
            peer = nodes.get(cand)
            if peer is None or not peer.alive:
                continue
            return cand
        return None

    # ---------------------------------------------------------- maintenance

    def _stabilize_ring(self, node: ProtocolNode, depth: int) -> None:
        # Quiescent-ring fast path (see module docstring): replay the
        # recorded message counts of a pure execution whose entire read
        # set is unchanged, instead of re-walking the ring.
        key = (node.node_id, depth)
        memo = self._stab_memo.get(key)
        if memo is not None:
            counts, had_peer = memo
            if (
                self._ring_has_live_peer(node.path[:depth], node.node_id)
                == had_peer
            ):
                stats = self.msgs.stats
                for kind, n in counts.items():
                    stats.record_many(kind, n)
                return
            del self._stab_memo[key]
        stats = self.msgs.stats
        epoch = self._epoch
        before = dict(stats.counts)
        reads = self._reads = {node.node_id}
        try:
            super()._stabilize_ring(node, depth)
        finally:
            self._reads = None
        if self._epoch != epoch:
            return  # the step wrote state: not replayable as recorded
        delta = {
            kind: n - before.get(kind, 0)
            for kind, n in stats.counts.items()
            if n != before.get(kind, 0)
        }
        self._stab_memo[key] = (
            delta,
            self._ring_has_live_peer(node.path[:depth], node.node_id),
        )
        deps = self._stab_deps
        for read in reads:
            bucket = deps.get(read)
            if bucket is None:
                bucket = deps[read] = set()
            bucket.add(key)

    def static_links(self) -> Dict[int, List[int]]:
        """Protocol-built link tables, cached until the next state write."""
        # The link tables are a pure function of the protocol state, so
        # the snapshot stays valid until the next write (epoch bump).
        cached = self._static_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        out = super().static_links()
        self._static_cache = (self._epoch, out)
        return out

    def oracle_links(self) -> Dict[int, List[int]]:
        """Static oracle construction, cached until membership changes."""
        from ..dhts.crescendo import CrescendoNetwork
        from ..core.hierarchy import Hierarchy

        # The oracle depends on the live membership only — not on link
        # state — so it survives any number of stabilization rounds.
        cached = self._oracle_cache
        if cached is not None and cached[0] == self._members_epoch:
            return cached[1]
        hierarchy = Hierarchy()
        for node_id in self.live_view():
            hierarchy.place(node_id, self.nodes[node_id].path)
        # The bulk builder is link-for-link identical for Crescendo (the
        # deterministic family), so the fast engine may use it.
        oracle = CrescendoNetwork(self.space, hierarchy).build()
        out = {n: list(links) for n, links in oracle.links.items()}
        self._oracle_cache = (self._members_epoch, out)
        return out
