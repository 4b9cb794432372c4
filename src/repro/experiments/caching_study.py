"""Caching study (Section 4.2's qualitative comparison, quantified).

A Zipf-popular key workload with domain-local access skew runs against two
caching policies on the *same* Crescendo network:

- **proxy** (:class:`~repro.storage.caching.CachingStore`): one copy per
  crossed hierarchy level, at the convergence proxy (the paper's design);
- **path** (:class:`~repro.storage.path_caching.PathCachingStore`): a copy
  at every node on each miss path (the flat-DHT baseline the paper argues
  against).

Reported: cache hit rate, mean lookup hops, and the number of copies created
— the paper's claim is that proxy caching matches (or beats) path caching's
hit behaviour at a small fraction of its copy overhead, because converged
paths make every copy maximally reusable.

Run: ``python -m repro.experiments caching --scale smoke``.
"""

from __future__ import annotations

import statistics
from typing import Dict

from ..analysis.tables import Table
from ..core.idspace import IdSpace
from ..core.hierarchy import build_uniform_hierarchy
from ..dhts.crescendo import CrescendoNetwork
from ..storage.caching import CachingStore
from ..storage.path_caching import PathCachingStore
from ..storage.store import HierarchicalStore
from ..workloads.queries import zipf_key_workload
from .common import get_scale, seeded_rng


def measurements(scale: str = "smoke") -> Dict[str, Dict[str, float]]:
    """policy -> {hit_rate, mean_hops, copies, copies_per_hit}."""
    cfg = get_scale(scale)
    size = 512 if scale == "smoke" else 2048
    universe = 60
    # Enough queries to reach the steady state: path caching's copy set is a
    # strict superset of proxy caching's (converged paths pass the proxies),
    # so its hit rate can only converge from above as cold misses amortise.
    queries = max(1500, cfg.route_samples * 4)

    rng = seeded_rng("cache-net", size)
    space = IdSpace()
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, 4, 3, rng)
    network = CrescendoNetwork(space, hierarchy).build()

    # Content: Zipf-popular global keys, inserted by random owners.
    keys = [f"object-{i}" for i in range(universe)]

    def fresh_store() -> HierarchicalStore:
        store = HierarchicalStore(network)
        owner_rng = seeded_rng("cache-owners", size)
        for key in keys:
            store.put(owner_rng.choice(ids), key, f"value-of-{key}")
        return store

    # Workload: queriers cluster in domains (locality of access — "the same
    # key queried by a node m is likely to be queried by other nodes close to
    # m in the hierarchy") and keys are Zipf-popular.
    workload_rng = seeded_rng("cache-work", size)
    key_choices = zipf_key_workload(universe, queries, workload_rng)
    hot_domains = [
        hierarchy.path_of(workload_rng.choice(ids))[:1] for _ in range(2)
    ]
    queriers = []
    for _ in range(queries):
        if workload_rng.random() < 0.8:
            members = hierarchy.members(
                hot_domains[workload_rng.randrange(len(hot_domains))]
            )
            queriers.append(workload_rng.choice(members))
        else:
            queriers.append(workload_rng.choice(ids))

    results: Dict[str, Dict[str, float]] = {}
    for label, factory in (
        ("proxy", lambda s: CachingStore(s, capacity=64)),
        ("path", lambda s: PathCachingStore(s, capacity=64)),
    ):
        store = factory(fresh_store())
        hops = []
        for querier, key_index in zip(queriers, key_choices):
            result = store.get(querier, keys[key_index])
            assert result.found, (label, keys[key_index])
            hops.append(result.hops)
        stats = store.stats
        copies = (
            store.stats.insertions
            if label == "proxy"
            else store.stats.copies_created
        )
        results[label] = {
            "hit_rate": stats.hit_rate,
            "mean_hops": statistics.mean(hops),
            "copies": float(copies),
            "copies_per_hit": copies / max(1, stats.hits),
        }
    return results


def run(scale: str = "smoke") -> Table:
    """Render the proxy-vs-path caching comparison table."""
    data = measurements(scale)
    table = Table(
        "Caching study — proxy (Canon) vs path (flat baseline)",
        ["policy", "hit rate", "mean hops", "copies created", "copies/hit"],
    )
    for label in ("proxy", "path"):
        row = data[label]
        table.add_row(
            label, row["hit_rate"], row["mean_hops"], row["copies"],
            row["copies_per_hit"],
        )
    return table
