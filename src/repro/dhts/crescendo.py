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
never satisfy it, so no own-ring test is needed.

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

from typing import Dict, List, Optional, Set

from ..core.hierarchy import DomainPath, Hierarchy
from ..core.idspace import IdSpace, successor_index
from ..core.network import DHTNetwork, Edges


class CrescendoNetwork(DHTNetwork):
    """Static (oracle) construction of a Crescendo ring.

    The reference (:meth:`build_reference`) merges one domain's ring at a
    time in pure Python; the bulk build sweeps each hierarchy depth's rings
    in one array pass (:func:`repro.perf.build.canon_merge`).  The two are
    cross-checked, side outputs included, by
    :func:`repro.verify.oracles.compare_builders`.
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
        return self._merge_rings()

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

    def _merge_rings(self) -> Dict[int, Set[int]]:
        """Build every ring bottom-up, one domain at a time."""
        link_sets: Dict[int, Set[int]] = {node: set() for node in self.node_ids}
        self.gap = {node: self.space.size for node in self.node_ids}
        self.level_successors = {node: [] for node in self.node_ids}
        depth_of = {node: len(self.hierarchy.path_of(node)) for node in self.node_ids}

        domains = sorted(self.hierarchy.domains(), key=lambda d: -d.depth)
        for domain in domains:
            members = self.hierarchy.sorted_members(domain.path)
            if not members:
                continue
            if domain.depth == 0:
                # Hook point: proximity-adapted variants replace the top-level
                # merge with group-based construction (Section 3.6).
                self._build_top_domain(members, link_sets)
            else:
                leaf_nodes = [m for m in members if depth_of[m] == domain.depth]
                merge_nodes = [m for m in members if depth_of[m] > domain.depth]
                self._build_domain_python(members, leaf_nodes, merge_nodes, link_sets)
            self._record_level(members)
        return link_sets

    def _build_top_domain(
        self, members: List[int], link_sets: Dict[int, Set[int]]
    ) -> None:
        """Top-level (root) merge; the default is the ordinary Canon merge."""
        leaf_nodes = [m for m in members if not self.hierarchy.path_of(m)]
        merge_nodes = [m for m in members if self.hierarchy.path_of(m)]
        self._build_domain_python(members, leaf_nodes, merge_nodes, link_sets)

    def _record_level(self, members: List[int]) -> None:
        """Record each member's successor in this ring (its new leaf set)."""
        count = len(members)
        for pos, node in enumerate(members):
            succ = members[(pos + 1) % count]
            self.level_successors[node].append(succ)
            self.gap[node] = (
                self.space.ring_distance(node, succ) if succ != node else self.space.size
            )

    def _build_domain_python(
        self,
        members: List[int],
        leaf_nodes: List[int],
        merge_nodes: List[int],
        link_sets: Dict[int, Set[int]],
    ) -> None:
        space = self.space
        for node in leaf_nodes:
            # First ring for this node: full Chord fingers within the domain.
            for k in range(space.bits):
                target = space.add(node, 1 << k)
                succ = members[successor_index(members, target)]
                if succ != node:
                    link_sets[node].add(succ)
        for node in merge_nodes:
            # Merge: union fingers strictly inside the node's own-ring gap.
            gap = self.gap[node]
            k = 0
            while (1 << k) < gap and k < space.bits:
                target = space.add(node, 1 << k)
                succ = members[successor_index(members, target)]
                if succ != node:
                    dist = space.ring_distance(node, succ)
                    if dist < gap:
                        link_sets[node].add(succ)
                k += 1

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
