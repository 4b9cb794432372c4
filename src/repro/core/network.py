"""Static network representation shared by every DHT construction.

A built DHT is represented as an explicit out-link table over node
identifiers.  Node identity *is* the DHT identifier (an integer in the ID
space); the conceptual hierarchy is carried alongside and maps each id to its
leaf domain.

The static ("oracle") constructions in :mod:`repro.dhts` fill these tables
directly; the message-level simulator in :mod:`repro.simulation` builds the
same tables through protocol messages and is cross-checked against the
oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .hierarchy import Hierarchy, ROOT
from .idspace import IdSpace, predecessor_index, successor_index

#: Node count at or below which :meth:`DHTNetwork.build` runs the scalar
#: reference: setting up arrays costs more than it saves on so few nodes.
BULK_THRESHOLD = 64


class LinkTableError(AssertionError):
    """A malformed entry in a network's link table.

    Subclasses :class:`AssertionError` for backward compatibility with
    callers that treat :meth:`DHTNetwork.check_links_valid` as an
    assertion, but carries the offending coordinates so harnesses (and
    humans reading CI logs) see *which* entry broke instead of an opaque
    failure.
    """

    def __init__(self, node: int, link: Optional[int], reason: str) -> None:
        self.node = node
        self.link = link
        self.reason = reason
        where = f"node {node}" if link is None else f"node {node} -> {link}"
        super().__init__(f"{where}: {reason}")


class DHTNetwork:
    """Base class: an ID space, a hierarchy, and a per-node link table.

    Subclasses populate ``links`` according to their construction rule:
    ``_reference_link_sets`` is the scalar reference, ``_bulk_link_sets``
    the vectorized form of the same rule (:mod:`repro.perf.build`), and
    the input alone picks between them (:meth:`_use_bulk`).  ``metric``
    declares which greedy routing engine applies ("ring" for Chord-family
    networks, "xor" for Kademlia-family).
    """

    metric = "ring"
    #: Short family tag used by :mod:`repro.verify` to select the invariant
    #: checkers that apply to a built instance.  Subclasses override it.
    family = "network"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy) -> None:
        self.space = space
        self.hierarchy = hierarchy
        ids = hierarchy.sorted_members(ROOT)
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        for ident in ids:
            space.validate(ident)
        self.node_ids: List[int] = list(ids)
        self._id_set: Set[int] = set(ids)
        # Out-links only; the paper's degree figures count these.
        self.links: Dict[int, List[int]] = {i: [] for i in ids}
        self._built = False
        #: Which construction ran: "numpy" (bulk) or "python" (reference).
        self.built_with: Optional[str] = None

    # ------------------------------------------------------------- building

    def build(self) -> "DHTNetwork":
        """Populate the link table.  Returns ``self`` for chaining.

        Takes the bulk construction when :meth:`_use_bulk` holds for this
        input, and :meth:`build_reference` otherwise.
        """
        if not self._use_bulk():
            return self.build_reference()
        self.built_with = "numpy"
        self._finalize_links(self._bulk_link_sets())
        return self

    def build_reference(self) -> "DHTNetwork":
        """Populate the link table through the scalar reference construction.

        The semantic definition every bulk builder is held to
        (:func:`repro.verify.oracles.compare_builders`).
        """
        self.built_with = "python"
        self._finalize_links(self._reference_link_sets())
        return self

    def _use_bulk(self) -> bool:
        """Whether :meth:`build` takes the bulk path — a function of the input.

        Ids must fit numpy's uint64 arithmetic (under 64 bits) and the network
        must exceed :data:`BULK_THRESHOLD` nodes; families whose input can
        lack a bulk form narrow this further.
        """
        return self.space.bits < 64 and self.size > BULK_THRESHOLD

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        """Per-node link sets by the scalar reference construction."""
        raise NotImplementedError

    def _bulk_link_sets(self) -> Dict[int, Set[int]]:
        """Per-node link sets by the vectorized construction of the same rule."""
        raise NotImplementedError

    def _finalize_links(self, link_sets: Dict[int, Set[int]]) -> None:
        """Install link sets, deduplicated, self-links removed, sorted by id.

        Sorting by identifier lets the greedy routing engines take each step
        with a binary search instead of a scan.
        """
        for node, targets in link_sets.items():
            targets.discard(node)
            self.links[node] = sorted(targets)
        self._built = True

    def require_built(self) -> None:
        """Raise unless :meth:`build` has completed."""
        if not self._built:
            raise RuntimeError(
                f"{type(self).__name__} has not been built; call .build() first"
            )

    # ------------------------------------------------------------- topology

    @property
    def size(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._id_set

    def neighbors(self, node_id: int) -> List[int]:
        """Out-neighbors of a node, sorted by identifier."""
        return self.links[node_id]

    def degree(self, node_id: int) -> int:
        """Out-degree (the paper's "number of links"; in-links not counted)."""
        return len(self.links[node_id])

    def degrees(self) -> List[int]:
        """Out-degrees of all nodes, in node-id order."""
        return [len(self.links[i]) for i in self.node_ids]

    def average_degree(self) -> float:
        """Mean out-degree (the y-axis of the paper's Figure 3)."""
        return sum(self.degrees()) / max(1, self.size)

    def degree_distribution(self) -> Dict[int, float]:
        """PDF of node degree (Figure 4 of the paper)."""
        counts = Counter(self.degrees())
        total = float(self.size)
        return {deg: cnt / total for deg, cnt in sorted(counts.items())}

    def max_degree(self) -> int:
        """Largest out-degree (Theorem 3's w.h.p. subject)."""
        return max(self.degrees(), default=0)

    # ---------------------------------------------------------- ring lookups

    def successor(self, ident: int, within: Optional[Sequence[int]] = None) -> int:
        """First node id >= ``ident`` clockwise (optionally within a domain list)."""
        ids = self.node_ids if within is None else within
        return ids[successor_index(ids, ident)]

    def responsible_node(self, key: int, within: Optional[Sequence[int]] = None) -> int:
        """The node managing ``key``: last node id <= key, cyclically.

        Implements the paper's inverted responsibility rule (Section 4.1
        footnote): a node is responsible for keys in ``[own id, next id)``.
        """
        ids = self.node_ids if within is None else within
        return ids[predecessor_index(ids, key)]

    # ------------------------------------------------------------ invariants

    def iter_link_violations(self) -> Iterable[tuple]:
        """Yield ``(node, link, reason)`` for every malformed link entry.

        Checks that every target exists, no node links to itself, and each
        node's link list is strictly sorted (the binary-search routing step
        in :mod:`repro.core.routing` relies on sortedness, and duplicates
        inflate the paper's degree figures).
        """
        self.require_built()
        for node, targets in self.links.items():
            if node not in self._id_set:
                yield (node, None, "link table row for unknown node")
            for prev, target in zip(targets, targets[1:]):
                if target <= prev:
                    yield (
                        node,
                        target,
                        f"link list not strictly sorted ({prev} then {target})",
                    )
            for target in targets:
                if target == node:
                    yield (node, target, "links to itself")
                elif target not in self._id_set:
                    yield (node, target, "links to unknown node")

    def check_links_valid(self) -> None:
        """Raise :class:`LinkTableError` on the first malformed link entry.

        The error names the offending node and link and the reason, so a
        failure in a 10^5-node build pinpoints the broken table row.
        """
        for node, link, reason in self.iter_link_violations():
            raise LinkTableError(node, link, reason)


def edges(network: DHTNetwork) -> Iterable[tuple]:
    """All directed (src, dst) link pairs of a built network."""
    network.require_built()
    for node in network.node_ids:
        for target in network.links[node]:
            yield (node, target)
