"""Query workloads: random pairs, locality-scoped pairs, popularity skew.

The Section 5.3 experiment ("latency as a function of query locality") draws
a source at random and a destination from the source's level-L domain: a
"Top Level" query may target anything; a "Level 1" query targets the
source's transit domain; and so on down the hierarchy.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..core.hierarchy import Hierarchy


def random_pair(node_ids: Sequence[int], rng) -> Tuple[int, int]:
    """Two distinct nodes uniformly at random."""
    if len(node_ids) < 2:
        raise ValueError("need at least two nodes")
    src = rng.choice(node_ids)
    dst = rng.choice(node_ids)
    while dst == src:
        dst = rng.choice(node_ids)
    return src, dst


def locality_pair(
    hierarchy: Hierarchy, node_ids: Sequence[int], rng, level: int
) -> Tuple[int, int]:
    """A random pair whose destination lies in the source's level-``level`` domain.

    ``level`` counts domain depth from the root: 0 is a top-level query
    (destination anywhere), 1 restricts the destination to the source's
    depth-1 domain, etc.  Sources without enough same-domain peers are
    re-drawn.
    """
    for _ in range(10_000):
        src = rng.choice(node_ids)
        path = hierarchy.path_of(src)
        depth = min(level, len(path))
        members = hierarchy.members(path[:depth])
        candidates = [m for m in members if m != src]
        if candidates:
            return src, rng.choice(candidates)
    raise RuntimeError(f"no level-{level} pair found; domains too small")


def locality_pairs(
    hierarchy: Hierarchy,
    node_ids: Sequence[int],
    rng,
    level: int,
    count: int,
) -> Iterator[Tuple[int, int]]:
    """Yield ``count`` locality-scoped pairs (see :func:`locality_pair`)."""
    for _ in range(count):
        yield locality_pair(hierarchy, node_ids, rng, level)


def zipf_key_workload(
    universe: int, count: int, rng, exponent: float = 0.8
) -> List[int]:
    """Key indices with Zipfian popularity (for the caching experiments).

    Returns ``count`` draws from ``range(universe)`` where the k-th most
    popular key has probability proportional to ``1/(k+1)**exponent``.
    """
    weights = [1.0 / ((k + 1) ** exponent) for k in range(universe)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    out: List[int] = []
    for _ in range(count):
        u = rng.random()
        lo, hi = 0, universe - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        out.append(lo)
    return out
