"""The flat-DHT caching baseline the paper compares against (Section 4.2).

"Caching solutions for flat DHT structures all require that the query answer
be cached all along the path used to route the query.  This implies that
there needs to be many copies made of each query answer, leading to higher
overhead.  Moreover, the absence of guaranteed local path convergence
implies that these cached copies cannot be exploited to the fullest extent."

:class:`PathCachingStore` implements exactly that baseline over any
ring-metric network: on a miss, the answer is cached at *every* node of the
query path.  Comparing its copy count and hit rate with
:class:`~repro.storage.caching.CachingStore` (one copy per crossed level,
placed at the convergence proxy) quantifies the paper's argument.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from .store import HierarchicalStore, SearchResult


@dataclass
class PathCacheStats:
    hits: int = 0
    misses: int = 0
    copies_created: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PathCachingStore:
    """Flat path caching: every node on a miss path stores a copy (LRU)."""

    def __init__(self, store: HierarchicalStore, capacity: int = 128) -> None:
        self.store = store
        self.network = store.network
        self.capacity = capacity
        self._caches: Dict[int, "OrderedDict[int, object]"] = {}
        self.stats = PathCacheStats()

    def _cache(self, node: int) -> "OrderedDict[int, object]":
        cache = self._caches.get(node)
        if cache is None:
            cache = OrderedDict()
            self._caches[node] = cache
        return cache

    def put(self, origin: int, key: object, value: object, **kwargs):
        """Insert content (delegates to the underlying hierarchical store)."""
        return self.store.put(origin, key, value, **kwargs)

    def get(self, origin: int, key: object) -> SearchResult:
        """Lookup; on a miss, copies the answer at every path node."""
        key_hash = self.store.space.hash_key(key)
        path = [origin]
        cur = origin
        result: Optional[SearchResult] = None
        from ..core.hierarchy import lca

        origin_path = self.store.hierarchy.path_of(origin)
        while True:
            cache = self._caches.get(cur)
            if cache is not None and key_hash in cache:
                cache.move_to_end(key_hash)
                self.stats.hits += 1
                result = SearchResult(key, [cache[key_hash]], path, cur, False, 0)
                break
            routing_domain = lca(origin_path, self.store.hierarchy.path_of(cur))
            local = self.store._local_answer(cur, key, key_hash, routing_domain)
            if local is not None:
                values, via_pointer, pointer_hops, content_node = local
                self.stats.misses += 1
                result = SearchResult(
                    key, values, path, cur, via_pointer, pointer_hops,
                    content_node,
                )
                break
            nxt = self.store._greedy_step(cur, key_hash)
            if nxt is None:
                self.stats.misses += 1
                return SearchResult(key, [], path, None, False, 0)
            path.append(nxt)
            cur = nxt
        if result.found and result.values:
            # Flat-DHT policy: copy the answer at EVERY node on the path.
            for node in result.path:
                cache = self._cache(node)
                if key_hash not in cache:
                    self.stats.copies_created += 1
                cache[key_hash] = result.values[0]
                cache.move_to_end(key_hash)
                while len(cache) > self.capacity:
                    cache.popitem(last=False)
        return result

    def total_cached_copies(self) -> int:
        """Copies currently resident across all node caches."""
        return sum(len(cache) for cache in self._caches.values())
