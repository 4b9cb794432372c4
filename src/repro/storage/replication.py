"""Leaf-set replication of stored content.

The paper keeps replication out of scope but leans on it twice: leaf sets
exist "to deal with node deletions" (§2.3) and the dense intra-group
structure of the proximity adaptation is "necessary even otherwise for
replication and fault tolerance" (§3.6).  This module supplies the standard
DHT mechanism both allude to: every key-value pair is replicated on the
``replicas`` ring successors *within its storage domain*, so content
survives the failure of its home node and domain-scoped content never leaks
replicas outside the domain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.hierarchy import DomainPath, ROOT
from ..obs.metrics import record_counter
from .store import HierarchicalStore, SearchResult, StoredItem

DEFAULT_REPLICAS = 3


class ReplicatedStore:
    """A :class:`HierarchicalStore` with successor-list replication.

    ``put`` writes the primary copy exactly as the hierarchical store does,
    then copies the item to the next ``replicas`` members of the storage
    domain's ring.  ``get_with_failures`` looks up content with a set of
    live nodes: if the greedy route or the home node is dead, the query is
    answered by the first live replica.
    """

    def __init__(self, store: HierarchicalStore, replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("need at least one replica (the primary)")
        self.store = store
        self.network = store.network
        self.replicas = replicas
        #: key_hash -> list of replica holders (primary first).
        self.replica_sets: Dict[int, List[int]] = {}

    def replica_nodes(self, key_hash: int, domain: DomainPath) -> List[int]:
        """Primary + its ring *predecessors* within the storage domain.

        Under the paper's inverted responsibility rule (a node manages keys
        in ``[own id, next id)``), when the primary dies its key range merges
        into its predecessor's — so predecessors are the nodes that will be
        asked for the key, and greedy routing over the surviving nodes lands
        exactly on the first live replica.
        """
        members = self.network.hierarchy.sorted_members(domain)
        if not members:
            raise ValueError(f"domain {domain!r} has no members")
        primary = self.store.home_node(key_hash, domain)
        start = members.index(primary)
        count = min(self.replicas, len(members))
        return [members[(start - i) % len(members)] for i in range(count)]

    def put(
        self,
        origin: int,
        key: object,
        value: object,
        storage_domain: Optional[DomainPath] = None,
        access_domain: Optional[DomainPath] = None,
    ) -> List[int]:
        """Insert with replication; returns the replica holders."""
        storage_domain = ROOT if storage_domain is None else storage_domain
        home, _pointer = self.store.put(
            origin, key, value, storage_domain, access_domain
        )
        key_hash = self.store.space.hash_key(key)
        holders = self.replica_nodes(key_hash, storage_domain)
        item = next(
            it
            for it in self.store._items[home][key_hash]
            if it.key == key
        )
        for holder in holders[1:]:
            replica = StoredItem(
                item.key, item.key_hash, item.value,
                item.storage_domain, item.access_domain,
            )
            self.store._items.setdefault(holder, {}).setdefault(
                key_hash, []
            ).append(replica)
        self.replica_sets[key_hash] = holders
        record_counter("storage.replica_copies", len(holders) - 1)
        return holders

    def get(self, origin: int, key: object) -> SearchResult:
        """Failure-free lookup (identical to the hierarchical store's)."""
        return self.store.get(origin, key)

    def get_with_failures(
        self, origin: int, key: object, alive: Set[int]
    ) -> SearchResult:
        """Lookup when some nodes are dead.

        Routes greedily among live nodes toward the key; any live node along
        the way holding a replica answers (subject to the ordinary access
        check performed by the store's local-answer logic).
        """
        from ..core.hierarchy import lca
        from ..core.routing import _best_ring_step

        if origin not in alive:
            raise ValueError(f"query origin {origin} is dead")
        key_hash = self.store.space.hash_key(key)
        origin_path = self.network.hierarchy.path_of(origin)
        path = [origin]
        cur = origin
        for _ in range(10_000):
            routing_domain = lca(origin_path, self.network.hierarchy.path_of(cur))
            hit = self.store._local_answer(cur, key, key_hash, routing_domain)
            if hit is not None:
                values, via_pointer, pointer_hops, content_node = hit
                return SearchResult(
                    key, values, path, cur, via_pointer, pointer_hops,
                    content_node,
                )
            nxt = _best_ring_step(self.network, cur, key_hash, alive)
            if nxt is None:
                return SearchResult(key, [], path, None, False, 0)
            path.append(nxt)
            cur = nxt
        raise RuntimeError("lookup exceeded hop bound")

    def surviving_copies(self, key: object, alive: Set[int]) -> int:
        """How many replicas of ``key`` are on live nodes."""
        key_hash = self.store.space.hash_key(key)
        holders = self.replica_sets.get(key_hash, [])
        return sum(1 for h in holders if h in alive)
