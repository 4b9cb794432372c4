"""Dynamic maintenance for Crescendo (Section 2.3), message by message.

A joining node knows one existing node in its lowest-level domain (or the
deepest of its domains that is populated).  It routes a query for its own ID,
reaching its predecessor at each level of the hierarchy; going from the
lowest-level domain to the top it inserts itself after that predecessor,
builds its links for that ring — using the predecessor's links as hints, so
the total join traffic stays O(log n) — and notifies its successor.  Each
node keeps a successor list (*leaf set*) **per level**; leaf sets are cheap,
are not counted as links, and make the rings robust to departures.

Fidelity note: protocol *logic* for one operation (a join, a leave, one
stabilization round, one lookup) executes atomically at its event time —
an RPC-level simulation.  Every node-to-node message is still individually
counted and the operations themselves interleave on the virtual clock, which
is what the paper's O(log n)-messages-per-join claim and the churn
experiments need.  After membership quiesces, one stabilization round makes
the link tables *exactly* equal to the static oracle construction
(:class:`~repro.dhts.crescendo.CrescendoNetwork`) — the cross-check the test
suite performs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..core.hierarchy import DomainPath, Hierarchy
from ..core.idspace import IdSpace, predecessor_index, successor_index
from ..core.routing import MAX_HOPS, LiveSet, Route
from .events import ConstantLatency, MessageLayer, Simulator

DEFAULT_LEAF_SET = 4


@dataclass
class RingState:
    """A node's view of one ring (one level of its domain chain)."""

    predecessor: Optional[int] = None
    successors: List[int] = field(default_factory=list)
    fingers: Set[int] = field(default_factory=set)

    @property
    def successor(self) -> Optional[int]:
        return self.successors[0] if self.successors else None


class ProtocolNode:
    """Protocol state of one live node."""

    def __init__(self, node_id: int, path: DomainPath) -> None:
        self.node_id = node_id
        self.path = path
        self.alive = True
        #: depth -> ring view; depth runs 0 (global) .. len(path) (leaf ring).
        self.rings: Dict[int, RingState] = {
            depth: RingState() for depth in range(len(path) + 1)
        }

    @property
    def leaf_depth(self) -> int:
        return len(self.path)

    def all_links(self) -> Set[int]:
        """Union of fingers across rings (the node's actual out-links)."""
        out: Set[int] = set()
        for ring in self.rings.values():
            out.update(ring.fingers)
        out.discard(self.node_id)
        return out

    def routing_contacts(self) -> Set[int]:
        """Links plus leaf-set entries (used for failure fallback)."""
        out = self.all_links()
        for ring in self.rings.values():
            out.update(ring.successors)
        out.discard(self.node_id)
        return out


class SimulatedCrescendo:
    """A Crescendo network maintained dynamically through protocol messages.

    Subclass hooks: the fast engine
    (:class:`repro.perf.dynamic.FastSimulatedCrescendo`) keeps auxiliary
    sorted-array state in sync by overriding the no-op notification points
    below — :meth:`_membership_added` / :meth:`_membership_crashed` /
    :meth:`_membership_removed` fire on every membership change, and
    :meth:`_touch` fires after every mutation of a node's contact-bearing
    ring state (fingers or leaf sets).  It also answers the membership
    queries and the greedy next hop (:meth:`_best_hop`, under both
    :meth:`_find_predecessor` and :meth:`lookup`) from that state; the
    scans here are the oracle it is held to.  The protocol logic itself
    exists only here and never branches on the engine.

    Every one of those hooks also records the node id in ``_view_dirty``:
    the ids whose row of the compiled serving view may differ from the
    snapshot held in ``_view``.  Both attributes are read and reset only by
    :func:`repro.serve.batcher.compile_protocol_view`, which rebuilds those
    rows and no others — a write that skips the hooks leaves the view stale.
    """

    #: Which maintenance engine this class implements (see
    #: :mod:`repro.perf.dynamic` for the ``fast`` counterpart).
    engine = "reference"

    def __init__(
        self,
        space: IdSpace,
        sim: Optional[Simulator] = None,
        latency_model=None,
        leaf_set_size: int = DEFAULT_LEAF_SET,
    ) -> None:
        self.space = space
        self.sim = sim if sim is not None else Simulator()
        self.msgs = MessageLayer(self.sim, latency_model or ConstantLatency())
        self.leaf_set_size = leaf_set_size
        self.nodes: Dict[int, ProtocolNode] = {}
        self.hierarchy = Hierarchy()
        #: nodes dark behind a network partition: not alive (the reachable
        #: side routes around them exactly as around crashes) but exempt
        #: from the stabilization purge, so their frozen protocol state
        #: survives until :meth:`revive`.
        self._suspended: Set[int] = set()
        #: observers implementing any of node_joined / node_leaving /
        #: node_crashed / stabilized (see repro.simulation.data.DataLayer).
        #: suspend and revive notify none of them: a data layer reads ring
        #: membership through live_members, which is current on both engines.
        self.listeners: List = []
        #: cached sorted live-id view (invalidated on membership changes).
        self._live_cache: Optional[List[int]] = None
        #: ids written since ``_view``, the last compiled serving view, was
        #: taken (see the class docstring).
        self._view_dirty: Set[int] = set()
        self._view: Optional[tuple] = None

    # ----------------------------------------------------- subclass hooks

    def _membership_added(self, node: ProtocolNode) -> None:
        """A node joined (called after ``nodes``/``hierarchy`` updates)."""
        self._live_cache = None
        self._view_dirty.add(node.node_id)

    def _membership_crashed(self, node: ProtocolNode) -> None:
        """A node crashed silently (``alive`` already flipped)."""
        self._live_cache = None
        self._view_dirty.add(node.node_id)

    def _membership_removed(self, node_id: int, path: DomainPath) -> None:
        """A node was forgotten (called after ``nodes``/``hierarchy`` updates)."""
        self._live_cache = None
        self._view_dirty.add(node_id)

    def _membership_revived(self, node: ProtocolNode) -> None:
        """A suspended node came back (``alive`` already flipped back)."""
        self._live_cache = None
        self._view_dirty.add(node.node_id)

    def _touch(self, node_id: int) -> None:
        """A node's ring state changed (cache-invalidation point).

        Fired after every mutation of a node's fingers, leaf sets or
        predecessor pointer, so a subclass tracking read-dependencies sees
        every write that could change another node's maintenance outcome.
        """
        self._view_dirty.add(node_id)

    def _observe_live(self, node_id: Optional[int]) -> bool:
        """Is ``node_id`` a live node?

        All aliveness reads inside the maintenance path go through this
        hook so a subclass can record which nodes an execution depended
        on (the fast engine's memoization needs the exact read set).
        """
        if node_id is None:
            return False
        peer = self.nodes.get(node_id)
        return peer is not None and peer.alive

    # ------------------------------------------------------------ live views

    def live_view(self) -> Sequence[int]:
        """Sorted ids of the live nodes — cached, invalidated on membership
        changes, so repeated oracle/convergence checks between churn events
        never re-sort the full membership.  Read-only: the returned sequence
        is only valid until the next join/leave/crash/purge.
        """
        if self._live_cache is None:
            self._live_cache = sorted(
                n for n, node in self.nodes.items() if node.alive
            )
        return self._live_cache

    def live_set(self) -> LiveSet:
        """The live membership as a :class:`~repro.core.routing.LiveSet`.

        The set is built from the cached sorted view, and its own
        ``sorted_ids`` cache is pre-seeded — handing it to the routing
        engines or failure studies costs no extra sort.
        """
        view = self.live_view()
        out = LiveSet(view)
        object.__setattr__(out, "_sorted", list(view))
        return out

    # --------------------------------------------------------------- helpers

    def _ordered_leafset(self, node_id: int, entries: List[int]) -> List[int]:
        """A leaf set: distinct live entries sorted by clockwise distance.

        Keeping leaf sets distance-ordered means the head is always the
        believed immediate successor, so a mis-informed joiner can never
        displace a closer, correct entry.
        """
        cleaned = _dedup(entries, node_id)
        size = self.space.size
        cleaned.sort(key=lambda x: (x - node_id) % size)
        return cleaned[: self.leaf_set_size]

    def _count(self, kind: str, hops: int = 1) -> None:
        self.msgs.stats.record_many(kind, hops)

    def _in_ring(self, node: ProtocolNode, prefix: DomainPath) -> bool:
        return node.path[: len(prefix)] == prefix

    def _gap(self, node: ProtocolNode, depth: int) -> int:
        """Distance to the node's own-ring successor one level *below* ``depth``.

        This is Canon condition (b)'s bound for the merge links of ring
        ``depth``; the leaf ring has no lower ring, so the gap is unbounded.
        """
        if depth >= node.leaf_depth:
            return self.space.size
        lower = node.rings[depth + 1].successor
        if lower is None or lower == node.node_id:
            return self.space.size
        return (lower - node.node_id) % self.space.size

    # ---------------------------------------------------- membership queries

    def _ring_has_live_peer(self, prefix: DomainPath, exclude: int) -> bool:
        """Whether the ring at ``prefix`` holds a live node besides ``exclude``."""
        return any(
            n != exclude and self.nodes[n].alive
            for n in self.hierarchy.members(prefix)
        )

    def _first_live_member(
        self, prefix: DomainPath, exclude: Optional[int] = None
    ) -> Optional[int]:
        """First live member of ``prefix`` in insertion order, or ``None``.

        Insertion order matters: this models the per-domain bootstrap
        directory, whose answer must not depend on the engine in use.
        """
        for n in self.hierarchy.members(prefix):
            if n != exclude and self.nodes[n].alive:
                return n
        return None

    def live_members(self, prefix: DomainPath) -> List[int]:
        """Sorted ids of the live members of the ring at ``prefix``.

        Read-only: the fast engine answers with its shared arena array,
        valid only until the next membership change.
        """
        return sorted(
            n for n in self.hierarchy.members(prefix) if self.nodes[n].alive
        )

    def _nearest_live_peer(self, prefix: DomainPath, node_id: int) -> int:
        """The live ring member (other than ``node_id``) closest clockwise.

        That is the first member past ``node_id``; it is ``node_id`` itself
        only when it is the ring's sole member, which callers rule out.
        """
        ring = self.live_members(prefix)
        return ring[successor_index(ring, self.space.add(node_id, 1))]

    # ------------------------------------------------------------ navigation

    def _ring_contacts(self, node: ProtocolNode, depth: int) -> Set[int]:
        """Contacts of ``node`` known to lie within its depth-``depth`` ring."""
        out: Set[int] = set()
        for d in range(depth, node.leaf_depth + 1):
            ring = node.rings.get(d)
            if ring:
                out.update(ring.fingers)
                out.update(ring.successors)
        out.discard(node.node_id)
        return out

    def _best_hop(
        self, node_id: int, depth: int, key: int, exclude: Optional[int]
    ) -> Optional[int]:
        """The greedy next hop from ``node_id`` towards ``key``, or ``None``.

        The live contact of the node's depth-``depth`` ring (depth 0: every
        contact) farthest clockwise from it without passing ``key``, never
        ``exclude``.  ``None`` means the node itself precedes ``key``.
        """
        size = self.space.size
        remaining = (key - node_id) % size
        best: Optional[int] = None
        best_dist = 0
        for contact in self._ring_contacts(self.nodes[node_id], depth):
            if contact == exclude:
                continue
            peer = self.nodes.get(contact)
            if peer is None or not peer.alive:
                continue
            dist = (contact - node_id) % size
            if 0 < dist <= remaining and dist > best_dist:
                best, best_dist = contact, dist
        return best

    def _find_predecessor(
        self,
        prefix: DomainPath,
        key: int,
        start: int,
        kind: str,
        exclude: Optional[int] = None,
    ) -> int:
        """Greedy clockwise walk within a ring to the predecessor of ``key``.

        Each hop is one message of type ``kind``.  ``exclude`` skips one node
        — a joining node looking up its own identifier must not terminate on
        itself.
        """
        depth = len(prefix)
        cur = start
        for _ in range(MAX_HOPS):
            best = self._best_hop(cur, depth, key, exclude)
            if best is None:
                return cur
            self._count(kind)
            cur = best
        raise RuntimeError("ring walk exceeded hop bound")

    def _find_successor_from(
        self,
        prefix: DomainPath,
        target: int,
        hint: int,
        kind: str,
        exclude: Optional[int] = None,
    ) -> int:
        """Successor of ``target`` in a ring, walking from a hint node."""
        pred = self._find_predecessor(prefix, target, hint, kind, exclude)
        if pred == target:
            return pred
        succ = self.nodes[pred].rings[len(prefix)].successor
        return succ if succ is not None else pred

    # ----------------------------------------------------------------- joins

    def bootstrap_node(self, node_id: int, path: DomainPath) -> ProtocolNode:
        """Create the very first node of the system."""
        if self.nodes:
            raise RuntimeError("network already bootstrapped; use join()")
        node = ProtocolNode(self.space.validate(node_id), path)
        self.nodes[node_id] = node
        self.hierarchy.place(node_id, path)
        self._membership_added(node)
        return node

    def pick_bootstrap(self, path: DomainPath) -> int:
        """An existing node from the deepest populated domain of ``path``.

        Models the paper's bootstrap directory (a per-domain server, the
        DNS server, or the DHT itself).
        """
        for depth in range(len(path), -1, -1):
            member = self._first_live_member(path[:depth])
            if member is not None:
                return member
        raise RuntimeError("no live node to bootstrap from")

    def join(
        self, node_id: int, path: DomainPath, bootstrap_id: Optional[int] = None
    ) -> int:
        """Join a new node; returns the number of protocol messages used."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already present")
        if not self.nodes:
            self.bootstrap_node(node_id, path)
            return 0
        before = self.msgs.stats.total
        bootstrap = (
            bootstrap_id if bootstrap_id is not None else self.pick_bootstrap(path)
        )
        node = ProtocolNode(self.space.validate(node_id), path)
        self.nodes[node_id] = node
        self.hierarchy.place(node_id, path)
        self._membership_added(node)

        # Insert bottom-up: predecessor lookup, splice, fingers, per level.
        contact = bootstrap
        for depth in range(node.leaf_depth, -1, -1):
            prefix = path[:depth]
            if not self._ring_has_live_peer(prefix, node_id):
                node.rings[depth] = RingState(None, [], set())
                self._touch(node_id)
                continue
            if not self._in_ring(self.nodes[contact], prefix):
                contact = self.pick_bootstrap(prefix)
            pred_id = self._find_predecessor(
                prefix, node_id, contact, "join_lookup", exclude=node_id
            )
            self._splice_in(node, depth, pred_id)
            self._build_fingers(node, depth, pred_id, "join_finger")
            contact = pred_id
        for listener in self.listeners:
            if hasattr(listener, "node_joined"):
                listener.node_joined(node_id)
        self.msgs.stats.flush()
        return self.msgs.stats.total - before

    def _splice_in(self, node: ProtocolNode, depth: int, pred_id: int) -> None:
        """Insert ``node`` after its ring predecessor and notify both sides."""
        pred = self.nodes[pred_id]
        ring = pred.rings[depth]
        succ_id = ring.successor if ring.successor is not None else pred_id
        node.rings[depth].predecessor = pred_id
        succ_list = [succ_id] + self.nodes[succ_id].rings[depth].successors
        node.rings[depth].successors = self._ordered_leafset(node.node_id, succ_list)
        ring.successors = self._ordered_leafset(
            pred_id, [node.node_id] + ring.successors
        )
        self.nodes[succ_id].rings[depth].predecessor = node.node_id
        self._touch(node.node_id)
        self._touch(pred_id)
        self._touch(succ_id)
        self._count("notify", 2)  # inform predecessor and successor

    def _finger_hints(
        self, node: ProtocolNode, pred_id: int, depth: int
    ) -> List[int]:
        """Sorted walk-start hints for :meth:`_build_fingers`: the
        predecessor plus its ring contacts, minus the joining node."""
        pred = self.nodes[pred_id]
        return sorted(
            {pred_id}
            | {
                contact
                for contact in self._ring_contacts(pred, depth)
                if contact != node.node_id
            }
        )

    def _build_fingers(
        self, node: ProtocolNode, depth: int, pred_id: int, kind: str
    ) -> None:
        """Create the node's ring-``depth`` links (hinted by the predecessor).

        At the node's leaf ring these are full Chord fingers; at merge rings
        only union fingers strictly inside the own-ring gap survive —
        conditions (a) and (b) of the Canon merge.
        """
        self._count(kind)  # fetch the predecessor's link list (the hints)
        prefix = node.path[:depth]
        gap = self._gap(node, depth)
        node_id = node.node_id
        size = self.space.size
        fingers: Set[int] = set()
        # The predecessor is ring-adjacent, so its finger table is within a
        # step or two of ours: start every search from the best hint instead
        # of walking from scratch (this is what keeps joins at O(log n)
        # messages).
        hints = self._finger_hints(node, pred_id, depth)
        last_succ: Optional[int] = None
        for k in range(self.space.bits):
            step = 1 << k
            if step >= gap:
                break
            # The previous finger already covers this octave: no probe needed
            # (this is what makes the number of *messages* O(log n) even
            # though N octaves are considered).
            if last_succ is not None and (last_succ - node_id) % size >= step:
                continue
            target = (node_id + step) % size
            # hints[bisect_right - 1] is the cyclic predecessor of the
            # target among the hints (negative indexing handles the wrap).
            start = hints[bisect.bisect_right(hints, target) - 1]
            # No exclusion here: the node itself may be the target's ring
            # predecessor (its splice is already done), and its successor
            # pointer is then exactly the finger we need.
            succ = self._find_successor_from(prefix, target, start, kind)
            if succ == node_id:
                continue
            dist = (succ - node_id) % size
            if step <= dist < gap:
                fingers.add(succ)
                last_succ = succ
                if succ not in hints:
                    bisect.insort(hints, succ)
        if fingers != node.rings[depth].fingers:
            node.rings[depth].fingers = fingers
            self._touch(node_id)

    # ------------------------------------------------------------ departures

    def leave(self, node_id: int) -> int:
        """Graceful departure: notify neighbors at every level."""
        node = self.nodes[node_id]
        before = self.msgs.stats.total
        for listener in self.listeners:
            if hasattr(listener, "node_leaving"):
                listener.node_leaving(node_id)
        for depth, ring in node.rings.items():
            pred_id = ring.predecessor
            succ_id = ring.successor
            if pred_id is not None and pred_id in self.nodes and pred_id != node_id:
                pred_ring = self.nodes[pred_id].rings[depth]
                pred_ring.successors = _dedup(
                    [s for s in [succ_id] + ring.successors if s is not None]
                    + pred_ring.successors,
                    pred_id,
                )
                pred_ring.successors = [
                    s for s in pred_ring.successors if s != node_id
                ][: self.leaf_set_size]
                self._touch(pred_id)
                self._count("leave_notify")
            if succ_id is not None and succ_id in self.nodes and succ_id != node_id:
                self.nodes[succ_id].rings[depth].predecessor = pred_id
                self._touch(succ_id)
                self._count("leave_notify")
        self._forget(node_id)
        self.msgs.stats.flush()
        return self.msgs.stats.total - before

    def crash(self, node_id: int) -> None:
        """Silent failure: no notifications; repair happens via leaf sets."""
        node = self.nodes[node_id]
        node.alive = False
        self._membership_crashed(node)
        for listener in self.listeners:
            if hasattr(listener, "node_crashed"):
                listener.node_crashed(node_id)

    # ----------------------------------------------------------- partitions

    def suspend(self, node_id: int) -> None:
        """Cut a node off behind a partition (dark, but state retained).

        From the reachable side this is indistinguishable from a crash —
        the node stops answering, lookups route around it, stabilization
        repairs leaf sets past it — except that its frozen protocol state
        is *not* purged, mirroring a real partition where the far side
        keeps its tables.  :meth:`revive` flips it back; repairing the now
        stale state is the caller's business (stabilize rounds), which is
        exactly the partition/rejoin hazard the scenario oracles probe.
        No protocol messages are exchanged (the cut is silent).
        """
        node = self.nodes[node_id]
        if not node.alive:
            raise ValueError(f"node {node_id} is not alive (cannot suspend)")
        node.alive = False
        self._suspended.add(node_id)
        self._membership_crashed(node)

    def revive(self, node_id: int) -> None:
        """Bring a suspended node back with its (stale) protocol state."""
        if node_id not in self._suspended:
            raise ValueError(f"node {node_id} is not suspended")
        self._suspended.discard(node_id)
        node = self.nodes[node_id]
        node.alive = True
        self._membership_revived(node)

    def suspended_ids(self) -> List[int]:
        """Sorted ids of the nodes currently dark behind a partition."""
        return sorted(self._suspended)

    def _forget(self, node_id: int) -> None:
        path = self.nodes[node_id].path
        self._suspended.discard(node_id)
        del self.nodes[node_id]
        self.hierarchy.remove(node_id)
        self._membership_removed(node_id, path)
        self._touch(node_id)
        for other in self.nodes.values():
            changed = False
            for ring in other.rings.values():
                if node_id in ring.fingers:
                    ring.fingers.discard(node_id)
                    changed = True
                if node_id in ring.successors:
                    # Leaf sets are deduplicated, so one removal suffices.
                    ring.successors.remove(node_id)
                    changed = True
                if ring.predecessor == node_id:
                    ring.predecessor = None
                    changed = True
            if changed:
                self._touch(other.node_id)

    # ---------------------------------------------------------- maintenance

    def stabilize(self) -> int:
        """One global stabilization round; returns messages used.

        Each live node, at each of its levels: repairs its successor list
        from the first live entry (dropping crashed nodes), re-adopts its
        successor's predecessor pointer, and refreshes its fingers — which
        also *drops* merge links invalidated by a shrunken own-ring gap.
        """
        before = self.msgs.stats.total
        for node in list(self.nodes.values()):
            if not node.alive:
                continue
            for depth in range(node.leaf_depth, -1, -1):
                self._stabilize_ring(node, depth)
        # Purge crashed nodes whose state no-one references any more.
        # Suspended nodes are exempt: they are dark, not gone, and must
        # come back with their state when the partition heals.
        for dead in [
            n
            for n, node in self.nodes.items()
            if not node.alive and n not in self._suspended
        ]:
            self._forget(dead)
        for listener in self.listeners:
            if hasattr(listener, "stabilized"):
                listener.stabilized()
        self.msgs.stats.flush()
        return self.msgs.stats.total - before

    def _stabilize_ring(self, node: ProtocolNode, depth: int) -> None:
        prefix = node.path[:depth]
        ring = node.rings[depth]
        live_succ = None
        for cand in ring.successors:
            self._count("ping")
            if self._observe_live(cand):
                live_succ = cand
                break
        if not self._ring_has_live_peer(prefix, node.node_id):
            # Reset only if there is state to reset: a ring that is already
            # empty stays untouched, so quiescent rounds perform no writes.
            if ring.predecessor is not None or ring.successors or ring.fingers:
                node.rings[depth] = RingState(None, [], set())
                self._touch(node.node_id)
            return
        if live_succ is None:
            # Leaf set exhausted (catastrophic local failure): locate our
            # ring predecessor through a live contact and read the successor
            # out of *its* leaf set (its head entry is ourselves).
            probe = self._find_predecessor(
                prefix,
                self.space.add(node.node_id, 1),
                self._first_live_member(prefix, exclude=node.node_id),
                "repair_lookup",
                exclude=node.node_id,
            )
            probe_ring = self.nodes[probe].rings[depth]
            for cand in probe_ring.successors:
                peer = self.nodes.get(cand)
                if cand != node.node_id and peer is not None and peer.alive:
                    live_succ = cand
                    break
            if live_succ is None:
                # Last resort: consult the bootstrap directory (the same
                # per-domain membership service new joiners use).
                live_succ = self._nearest_live_peer(prefix, node.node_id)
            self._count("repair_lookup")
        # Chord's stabilize step: if our successor's predecessor lies between
        # us and it, that node is our true successor — adopt it.
        succ_ring = self.nodes[live_succ].rings[depth]
        between = succ_ring.predecessor
        if (
            between is not None
            and between != node.node_id
            and self._observe_live(between)
            and self.space.ring_distance(node.node_id, between)
            < self.space.ring_distance(node.node_id, live_succ)
        ):
            live_succ = between
            succ_ring = self.nodes[live_succ].rings[depth]
            self._count("notify")
        # Verification walk: a node that mis-spliced during instability is
        # internally consistent with its (equally wrong) neighbors, so also
        # ask the ring itself — walk from our believed predecessor to the
        # true predecessor of our successor position and compare heads.
        # For a correctly placed node this is 0 hops.
        start = ring.predecessor
        if not self._observe_live(start):
            start = live_succ
        probe = self._find_predecessor(
            prefix,
            self.space.add(node.node_id, 1),
            start,
            "verify",
            exclude=node.node_id,
        )
        probe_ring = self.nodes[probe].rings[depth]
        probe_head = next(
            (
                cand
                for cand in probe_ring.successors
                if cand != node.node_id and self._observe_live(cand)
            ),
            None,
        )
        if probe_head is not None and self.space.ring_distance(
            node.node_id, probe_head
        ) < self.space.ring_distance(node.node_id, live_succ):
            live_succ = probe_head
            succ_ring = self.nodes[live_succ].rings[depth]
            self._count("notify")
        if probe != node.node_id:
            # Offer ourselves to the probe's leaf set: if we really are its
            # immediate successor, the distance ordering puts us at its head
            # and the ring heals from the predecessor side too.  Skip the
            # (identical) assignment when the offer changes nothing, so a
            # converged ring sees no writes.
            offered = self._ordered_leafset(
                probe, [node.node_id] + probe_ring.successors
            )
            if offered != probe_ring.successors:
                probe_ring.successors = offered
                self._touch(probe)
        repaired = self._ordered_leafset(
            node.node_id, [live_succ] + succ_ring.successors
        )
        if repaired != ring.successors:
            ring.successors = repaired
            self._touch(node.node_id)
        if succ_ring.predecessor != node.node_id:
            pred_cand = succ_ring.predecessor
            if (
                not self._observe_live(pred_cand)
                or self.space.ring_distance(pred_cand, live_succ)
                > self.space.ring_distance(node.node_id, live_succ)
            ):
                succ_ring.predecessor = node.node_id
                self._touch(live_succ)
                self._count("notify")
        self._build_fingers(
            node, depth, ring.predecessor or live_succ, "refresh_finger"
        )

    def stabilize_to_convergence(self, max_rounds: int = 20) -> int:
        """Stabilize until the link tables equal the static oracle.

        Returns the number of rounds used.  Successor-chain damage repairs
        one position per round (as in Chord), so heavily damaged rings can
        need several; raises if ``max_rounds`` is not enough.
        """
        # Stabilization only purges already-dead state and never changes
        # the live membership, so the oracle is loop-invariant.
        oracle = self.oracle_links()
        for round_number in range(1, max_rounds + 1):
            self.stabilize()
            if self.static_links() == oracle:
                return round_number
        raise RuntimeError(f"not converged after {max_rounds} stabilize rounds")

    # ---------------------------------------------------------------- lookup

    def lookup(self, src: int, key: int) -> Route:
        """Greedy clockwise lookup with leaf-set fallback around failures."""
        cur = src
        path = [src]
        size = self.space.size
        try:
            for _ in range(MAX_HOPS):
                if (key - cur) % size == 0:
                    return Route(path, True, key)
                # Depth 0: every contact, i.e. the node's routing_contacts().
                best = self._best_hop(cur, 0, key, None)
                if best is None:
                    return Route(path, self._responsible_live(cur, key), key)
                self._count("lookup")
                path.append(best)
                cur = best
            raise RuntimeError("lookup exceeded hop bound")
        finally:
            self.msgs.stats.flush()

    def _responsible_live(self, node_id: int, key: int) -> bool:
        live = self.live_view()
        if not live:
            return False
        return live[predecessor_index(live, key)] == node_id

    # ------------------------------------------------------------ validation

    def static_links(self) -> Dict[int, List[int]]:
        """Current link tables in the static-network format (sorted lists)."""
        return {
            node_id: sorted(node.all_links())
            for node_id, node in self.nodes.items()
            if node.alive
        }

    def oracle_links(self) -> Dict[int, List[int]]:
        """Ground-truth Crescendo links for the current live membership."""
        from ..dhts.crescendo import CrescendoNetwork

        hierarchy = Hierarchy()
        for node_id in self.live_view():
            hierarchy.place(node_id, self.nodes[node_id].path)
        oracle = CrescendoNetwork(self.space, hierarchy).build_reference()
        return {n: list(links) for n, links in oracle.links.items()}


def _dedup(items: List[int], exclude: int) -> List[int]:
    """Stable de-duplication, dropping ``exclude`` and ``None`` entries."""
    seen: Set[int] = set()
    out: List[int] = []
    for item in items:
        if item is None or item == exclude or item in seen:
            continue
        seen.add(item)
        out.append(item)
    return out
