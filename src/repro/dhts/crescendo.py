"""Crescendo — the Canonical (hierarchical) version of Chord (Section 2).

Construction.  Every node draws a random N-bit identifier.  The nodes of each
*leaf* domain form a standard Chord ring among themselves.  Moving bottom-up,
the ring of an internal domain is obtained by *merging* its children's rings:
each node ``m`` retains all its existing links and additionally links to a
node ``m'`` outside its own (child) ring if and only if

  (a) ``m'`` is the closest node at least distance ``2**k`` away for some
      ``0 <= k < N``, applied over the union of the sibling rings, and
  (b) ``m'`` is closer to ``m`` than any node in ``m``'s own ring.

Because condition (b) bounds new links by the clockwise distance to ``m``'s
successor in its own ring, the links added at a merge are exactly the union
fingers that land strictly inside that gap — nodes of ``m``'s own ring can
never satisfy it, so no own-ring test is needed.  A leaf ring is a merge
into nothing, whose gap is the whole space, so one rule builds every ring.

The merge itself, :func:`canon_rings`, is family-neutral: Cacophony
(§3.1), ND-Crescendo (§3.2) and LAN-Crescendo (§3.5) each build by it with
their own rule in place of Chord's fingers.

Routing is plain greedy clockwise routing (Section 2.2): it is *naturally
hierarchical*, with two structural guarantees validated in the test suite:

- **Locality of intra-domain paths**: a route between two nodes never leaves
  their lowest common domain.
- **Convergence of inter-domain paths**: all routes from inside a domain D to
  a destination x outside D exit D through the closest predecessor of x
  within D.

Theorem 2: expected degree is at most ``log2(n-1) + min(l, log2 n)`` for an
l-level hierarchy (empirically it is *below* Chord's and decreases with l).
Theorem 5: expected routing hops are at most ``log2(n-1) + 1`` irrespective
of the hierarchy (empirically ~``0.5*log2 n + c``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.hierarchy import DomainPath, Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork, Edges
from .chord import finger_links

#: ``rule(node, members, gap)``: a family's links for ``node`` among a
#: ring's sorted ``members`` that lie closer than ``gap``.
CanonRule = Callable[[int, List[int], int], Iterable[int]]


def canon_rings(
    network: DHTNetwork, rule: CanonRule, root: Optional[CanonRule] = None
) -> Tuple[Dict[int, Set[int]], Dict[int, int], Dict[int, List[int]]]:
    """Build every ring of ``network`` bottom-up by the Canon merge (§2.1).

    Domains are visited deepest first and each ring's members in id order.
    Each member adds ``rule(node, members, gap)``, where ``gap`` is the
    clockwise distance to its successor in its own lower ring, then links
    its successor in the new ring, whose distance becomes its ``gap``.  A
    node's leaf ring is a merge into nothing: its ``gap`` is the whole space.
    ``root``, when given, replaces ``rule`` in the root ring and links no
    successor there (the proximity variant's group construction, §3.6).

    Returns ``(link_sets, gap, level_successors)``: each node's links, its
    final own-ring gap and its successor in each of its rings, leaf first.
    """
    space = network.space
    hierarchy = network.hierarchy
    link_sets: Dict[int, Set[int]] = {node: set() for node in network.node_ids}
    gap = {node: space.size for node in network.node_ids}
    level_successors: Dict[int, List[int]] = {node: [] for node in network.node_ids}
    for domain in sorted(hierarchy.domains(), key=lambda d: -d.depth):
        members = hierarchy.sorted_members(domain.path)
        link_successor = root is None or domain.depth > 0
        ring_rule = rule if link_successor else root
        for pos, node in enumerate(members):
            links = link_sets[node]
            links.update(ring_rule(node, members, gap[node]))
            succ = members[(pos + 1) % len(members)]
            level_successors[node].append(succ)
            if succ == node:
                gap[node] = space.size
                continue
            if link_successor:
                links.add(succ)
            gap[node] = space.ring_distance(node, succ)
    return link_sets, gap, level_successors


class CrescendoNetwork(DHTNetwork):
    """Static (oracle) construction of a Crescendo ring.

    The reference (:meth:`build_reference`) is :func:`canon_rings` with
    Chord's finger rule bounded by the gap; the bulk build sweeps each
    hierarchy depth's rings in one array pass
    (:func:`repro.perf.build.canon_merge`).  The two are cross-checked, side
    outputs included, by :func:`repro.verify.oracles.compare_builders`.
    """

    metric = "ring"
    family = "crescendo"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy) -> None:
        super().__init__(space, hierarchy)
        #: Per node: clockwise distance to its own-ring successor, updated as
        #: rings merge; exposed for analysis and invariant checks.
        self.gap: Dict[int, int] = {}
        #: Per node: successor at each of its levels, leaf domain first
        #: (the per-level leaf sets of Section 2.3, not counted as links).
        self.level_successors: Dict[int, List[int]] = {}

    # ---------------------------------------------------------------- build

    def _use_bulk(self) -> bool:
        from ..perf.build import composite_keys_fit

        return super()._use_bulk() and composite_keys_fit(
            self.hierarchy, self.space.bits
        )

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        link_sets, self.gap, self.level_successors = canon_rings(self, self._fingers)
        return link_sets

    def _fingers(self, node: int, members: List[int], gap: int) -> Set[int]:
        """Crescendo's rule: the union ring's Chord fingers inside the gap."""
        return finger_links(node, members, self.space, gap)

    def _bulk_link_sets(self) -> Edges:
        return self._sweep_rings(floor=0)

    def _sweep_rings(self, floor: int) -> Edges:
        """``(src, dst)`` positions of every ring at depth ``>= floor`` by
        the per-depth sweep."""
        from ..perf.build import crescendo_edges

        edges, self.gap, self.level_successors = crescendo_edges(
            self.node_ids, self.space, self.hierarchy, floor
        )
        return edges

    # -------------------------------------------------------------- queries

    def levels_of(self, node_id: int) -> int:
        """Number of rings the node belongs to (its leaf depth + 1)."""
        return len(self.hierarchy.path_of(node_id)) + 1

    def successor_at_level(self, node_id: int, depth: int) -> Optional[int]:
        """The node's successor in its depth-``depth`` ancestor ring.

        ``depth`` counts from the root (0 = global ring).  Returns ``None``
        when the node has no ring at that depth.
        """
        chain = self.level_successors.get(node_id)
        if chain is None:
            self.require_built()
            return None
        leaf_depth = len(self.hierarchy.path_of(node_id))
        # chain is recorded deepest-first: chain[0] is the leaf-domain ring.
        index = leaf_depth - depth
        if not 0 <= index < len(chain):
            return None
        return chain[index]

    def exit_node(self, domain: DomainPath, dest_key: int) -> int:
        """The common exit point for routes from ``domain`` to ``dest_key``.

        By the convergence property (Section 2.2) this is the closest
        predecessor of the destination within the domain — also the proxy
        node used for caching (Section 4.2).
        """
        members = self.hierarchy.sorted_members(domain)
        if not members:
            raise ValueError(f"domain {domain!r} has no members")
        return self.responsible_node(dest_key, within=members)
