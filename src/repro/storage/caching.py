"""Hierarchical caching of query answers (Section 4.2).

Inter-domain path convergence means every query for key k issued from inside
domain D exits D through one *proxy node* — the closest predecessor of k
within D (also where content with storage domain D would live).  Answers are
therefore cached at the proxy node of **each** domain level crossed on the
way to the answer, annotated with the level number it serves (level 1 =
highest crossed domain; larger numbers = deeper domains).

Cache replacement exploits the annotations: copies with *larger* level
numbers (deeper domains) are evicted preferentially, since a lost low-level
copy is likely re-served by the copy one level up.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.hierarchy import DomainPath, lca
from ..obs.metrics import record_counter
from .store import HierarchicalStore, SearchResult


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LevelAwareCache:
    """A per-node cache whose eviction prefers deeper (larger) level labels.

    Within a level class, the least recently used entry goes first.  A
    re-inserted key keeps the smaller (higher) level label, as the paper
    prescribes for a node that is proxy for several levels at once.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[int, Tuple[object, int]]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key_hash: int) -> Optional[object]:
        """Cached value for the key (refreshing its recency), else None."""
        entry = self._entries.get(key_hash)
        if entry is None:
            return None
        self._entries.move_to_end(key_hash)
        return entry[0]

    def level_of(self, key_hash: int) -> Optional[int]:
        """The entry's level annotation, or None if absent."""
        entry = self._entries.get(key_hash)
        return entry[1] if entry else None

    def put(self, key_hash: int, value: object, level: int) -> None:
        """Insert/refresh an entry, evicting per the level policy if full."""
        existing = self._entries.get(key_hash)
        if existing is not None:
            level = min(level, existing[1])
        self._entries[key_hash] = (value, level)
        self._entries.move_to_end(key_hash)
        while len(self._entries) > self.capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        worst_level = max(level for _, level in self._entries.values())
        for key_hash, (_, level) in self._entries.items():  # LRU order
            if level == worst_level:
                del self._entries[key_hash]
                self.evictions += 1
                record_counter("storage.cache.evictions")
                return


class CachingStore:
    """A :class:`HierarchicalStore` augmented with proxy-node caching.

    ``get`` first walks the greedy path checking caches (a hit at the proxy
    of the lowest domain shared with a previous querier short-circuits the
    lookup); on a miss that is eventually answered, the answer is cached at
    the proxy node of every domain level crossed, annotated with its level.
    """

    def __init__(self, store: HierarchicalStore, capacity: int = 128) -> None:
        self.store = store
        self.network = store.network
        self.hierarchy = store.hierarchy
        self.capacity = capacity
        self._caches: Dict[int, LevelAwareCache] = {}
        self.stats = CacheStats()

    def cache_at(self, node: int) -> LevelAwareCache:
        """The (lazily created) cache hosted at ``node``."""
        cache = self._caches.get(node)
        if cache is None:
            cache = LevelAwareCache(self.capacity)
            self._caches[node] = cache
        return cache

    def put(self, origin: int, key: object, value: object, **kwargs):
        """Insert content (delegates to the underlying hierarchical store)."""
        return self.store.put(origin, key, value, **kwargs)

    def get(self, origin: int, key: object) -> SearchResult:
        """Cache-aware hierarchical lookup (see class docstring)."""
        key_hash = self.store.space.hash_key(key)
        # Stage 1: walk the greedy path looking for cached or stored answers.
        path = [origin]
        cur = origin
        result: Optional[SearchResult] = None
        origin_path = self.hierarchy.path_of(origin)
        while True:
            cached = self._caches.get(cur)
            hit = cached.get(key_hash) if cached else None
            if hit is not None:
                self.stats.hits += 1
                record_counter("storage.cache.hits")
                result = SearchResult(key, [hit], path, cur, False, 0)
                break
            routing_domain = lca(origin_path, self.hierarchy.path_of(cur))
            local = self.store._local_answer(cur, key, key_hash, routing_domain)
            if local is not None:
                values, via_pointer, pointer_hops, content_node = local
                self.stats.misses += 1
                record_counter("storage.cache.misses")
                result = SearchResult(
                    key, values, path, cur, via_pointer, pointer_hops,
                    content_node,
                )
                break
            nxt = self.store._greedy_step(cur, key_hash)
            if nxt is None:
                self.stats.misses += 1
                record_counter("storage.cache.misses")
                return SearchResult(key, [], path, None, False, 0)
            path.append(nxt)
            cur = nxt
        # Stage 2: install the answer at the proxy node of every level
        # crossed between the origin and the answering node.
        if result.found and result.values:
            # Cache levels are computed against the node physically holding
            # the content: an answer fetched through a pointer came from the
            # pointer's home, not the pointer node itself.
            self._install(
                origin,
                result.content_node or result.found_at,
                key_hash,
                result.values[0],
            )
        return result

    def _install(self, origin: int, answered_at: int, key_hash: int, value: object) -> None:
        origin_path = self.hierarchy.path_of(origin)
        answer_domain = lca(origin_path, self.hierarchy.path_of(answered_at))
        # Every ancestor domain of the origin strictly deeper than the shared
        # domain was exited on the way to the answer: cache at its proxy.
        # The highest such domain is annotated level 1, the next level 2, and
        # so on down to the origin's leaf domain (paper's example: an answer
        # found outside CS but within Stanford is cached at p(Q, CS) with
        # level 1 and at p(Q, DB) with level 2).
        for depth in range(len(answer_domain) + 1, len(origin_path) + 1):
            domain: DomainPath = origin_path[:depth]
            proxy = self.store.home_node(key_hash, domain)
            level = depth - len(answer_domain)
            self.cache_at(proxy).put(key_hash, value, level)
            self.stats.insertions += 1
            record_counter("storage.cache.insertions")

    def eviction_count(self) -> int:
        """Total evictions across every node's cache."""
        return sum(cache.evictions for cache in self._caches.values())
