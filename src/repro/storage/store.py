"""Hierarchical storage, retrieval and access control (Section 4.1).

A flat DHT gives no choice about placement: a key-value pair lives at the
unique node responsible for the key.  Canon's hierarchy adds two knobs when a
node ``n`` inserts content:

- **storage domain** ``Ds``: a domain containing ``n`` within which the
  content must physically reside.  The pair is stored at the node of ``Ds``
  responsible for the key under the DHT restricted to ``Ds``'s members.
- **access domain** ``Da``: a superset (ancestor) of ``Ds`` whose nodes may
  retrieve the content.  When ``Da`` is larger than ``Ds``, an additional
  *pointer* is placed at the responsible node within ``Da``.

Search is ordinary hierarchical greedy routing with two changes: nodes along
the path may answer from local content — but only content whose access
domain is no smaller than the current *routing level* (the lowest common
ancestor of the query source and the current node) — and pointers are
resolved by fetching the content from the pointed-to node.  A query for
content stored locally in a domain therefore never leaves the domain, and a
query automatically retrieves exactly the content its issuer is permitted to
access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.hierarchy import DomainPath, ROOT, is_ancestor, lca
from ..core.routing import MAX_HOPS
from ..dhts.crescendo import CrescendoNetwork
from ..obs.metrics import record_counter


@dataclass
class StoredItem:
    """A key-value pair with its placement policy."""

    key: object
    key_hash: int
    value: object
    storage_domain: DomainPath
    access_domain: DomainPath

    def visible_at_level(self, routing_domain: DomainPath) -> bool:
        """Access check: the access domain must contain the routing domain."""
        return is_ancestor(self.access_domain, routing_domain)


@dataclass
class Pointer:
    """Indirection stored in the access domain pointing at the content home."""

    key_hash: int
    home_node: int
    storage_domain: DomainPath
    access_domain: DomainPath

    def visible_at_level(self, routing_domain: DomainPath) -> bool:
        """Access check: the access domain must contain the routing domain."""
        return is_ancestor(self.access_domain, routing_domain)


@dataclass
class SearchResult:
    """Outcome of a hierarchical lookup."""

    key: object
    values: List[object]
    path: List[int]
    found_at: Optional[int]
    via_pointer: bool
    #: extra hops spent resolving the pointer indirection (fetch + return).
    pointer_hops: int = 0
    #: the node physically holding the returned value (differs from
    #: ``found_at`` when the answer came through a pointer).
    content_node: Optional[int] = None

    @property
    def found(self) -> bool:
        return self.found_at is not None

    @property
    def hops(self) -> int:
        return len(self.path) - 1 + self.pointer_hops


class HierarchicalStore:
    """Content storage over a built Crescendo (or compatible ring) network.

    The network must expose ``hierarchy``, ``space``, ``links`` and
    ``responsible_node(key, within=...)`` — i.e. any ring-metric
    :class:`~repro.core.network.DHTNetwork` whose greedy routes pass through
    the per-domain responsible nodes (Crescendo's convergence property).
    """

    def __init__(self, network: CrescendoNetwork) -> None:
        network.require_built()
        self.network = network
        self.space = network.space
        self.hierarchy = network.hierarchy
        self._items: Dict[int, Dict[int, List[StoredItem]]] = {}
        self._pointers: Dict[int, Dict[int, List[Pointer]]] = {}

    # -------------------------------------------------------------- helpers

    def home_node(self, key_hash: int, domain: DomainPath) -> int:
        """The node of ``domain`` responsible for the key (Section 4.1)."""
        members = self.hierarchy.sorted_members(domain)
        if not members:
            raise ValueError(f"domain {domain!r} has no members")
        return self.network.responsible_node(key_hash, within=members)

    def items_at(self, node: int) -> List[StoredItem]:
        """All items physically stored at ``node``."""
        return [item for bucket in self._items.get(node, {}).values() for item in bucket]

    def pointers_at(self, node: int) -> List[Pointer]:
        """All pointers hosted at ``node``."""
        return [p for bucket in self._pointers.get(node, {}).values() for p in bucket]

    # ------------------------------------------------------------------ put

    def put(
        self,
        origin: int,
        key: object,
        value: object,
        storage_domain: Optional[DomainPath] = None,
        access_domain: Optional[DomainPath] = None,
    ) -> Tuple[int, Optional[int]]:
        """Insert content; returns ``(home node, pointer node or None)``.

        Defaults are global storage and global access.  The storage domain
        must contain the inserting node; the access domain must be an
        ancestor (superset) of the storage domain.
        """
        storage_domain = ROOT if storage_domain is None else storage_domain
        access_domain = ROOT if access_domain is None else access_domain
        origin_path = self.hierarchy.path_of(origin)
        if not is_ancestor(storage_domain, origin_path):
            raise ValueError(
                f"storage domain {storage_domain!r} does not contain node {origin}"
            )
        if not is_ancestor(access_domain, storage_domain):
            raise ValueError(
                f"access domain {access_domain!r} is not a superset of "
                f"storage domain {storage_domain!r}"
            )
        key_hash = self.space.hash_key(key)
        record_counter("storage.puts")
        home = self.home_node(key_hash, storage_domain)
        item = StoredItem(key, key_hash, value, storage_domain, access_domain)
        self._items.setdefault(home, {}).setdefault(key_hash, []).append(item)
        pointer_node: Optional[int] = None
        if access_domain != storage_domain:
            pointer_node = self.home_node(key_hash, access_domain)
            if pointer_node != home:
                pointer = Pointer(key_hash, home, storage_domain, access_domain)
                self._pointers.setdefault(pointer_node, {}).setdefault(
                    key_hash, []
                ).append(pointer)
        return home, pointer_node

    # ------------------------------------------------------------------ get

    def get(
        self,
        origin: int,
        key: object,
        first_match: bool = True,
    ) -> SearchResult:
        """Hierarchical lookup from ``origin`` (Section 4.1 search protocol).

        Routes greedily toward the key; every node along the path may answer
        from local content passing the access check for the current routing
        level.  With ``first_match`` (single-value applications) the search
        stops at the first hit — so a query for locally stored content never
        leaves the domain.
        """
        key_hash = self.space.hash_key(key)
        record_counter("storage.gets")
        origin_path = self.hierarchy.path_of(origin)
        path = [origin]
        cur = origin
        values: List[object] = []
        for _ in range(MAX_HOPS):
            routing_domain = lca(origin_path, self.hierarchy.path_of(cur))
            hit = self._local_answer(cur, key, key_hash, routing_domain)
            if hit is not None:
                found_values, via_pointer, pointer_hops, content_node = hit
                values.extend(found_values)
                if first_match:
                    return SearchResult(
                        key, values, path, cur, via_pointer, pointer_hops,
                        content_node,
                    )
            nxt = self._greedy_step(cur, key_hash)
            if nxt is None:
                found_at = path[-1] if values else None
                return SearchResult(key, values, path, found_at, False, 0)
            path.append(nxt)
            cur = nxt
        raise RuntimeError("lookup exceeded hop bound; broken network")

    def _local_answer(
        self,
        node: int,
        key: object,
        key_hash: int,
        routing_domain: DomainPath,
    ) -> Optional[Tuple[List[object], bool, int, int]]:
        """Local items/pointers at ``node`` passing the access check.

        Returns ``(values, via_pointer, pointer_hops, content_node)``.
        """
        items = [
            item
            for item in self._items.get(node, {}).get(key_hash, [])
            if item.key == key and item.visible_at_level(routing_domain)
        ]
        if items:
            return [item.value for item in items], False, 0, node
        pointers = [
            p
            for p in self._pointers.get(node, {}).get(key_hash, [])
            if p.visible_at_level(routing_domain)
        ]
        for pointer in pointers:
            remote = [
                item.value
                for item in self._items.get(pointer.home_node, {}).get(key_hash, [])
                if item.key == key
            ]
            if remote:
                # Resolve the indirection: node fetches from the content home
                # and returns it to the query initiator (round trip).
                record_counter("storage.pointer_resolutions")
                fetch = route_hops(self.network, node, pointer.home_node)
                return remote, True, 2 * fetch, pointer.home_node
        return None

    def _greedy_step(self, cur: int, key_hash: int) -> Optional[int]:
        from ..core.routing import _best_ring_step

        return _best_ring_step(self.network, cur, key_hash, None)


def route_hops(network, src: int, dst: int) -> int:
    """Hop count of the greedy route between two nodes."""
    from ..core.routing import route_ring

    return route_ring(network, src, dst).hops
