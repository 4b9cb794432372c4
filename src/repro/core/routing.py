"""Greedy routing engines.

All DHTs in the paper route greedily: Chord-family networks use greedy
*clockwise* (non-overshooting) routing on the ring metric; Kademlia-family
networks greedily shrink the XOR distance; Symphony additionally supports
greedy routing with a one-step *lookahead* (Section 3.1).

Routing operates on the static link tables of a built
:class:`~repro.core.network.DHTNetwork`.  Every engine returns a
:class:`Route` carrying the full node path so the analysis layer can compute
hops, latencies, path overlap and domain crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Set

from .idspace import predecessor_index, successor_index
from .network import DHTNetwork

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..obs.trace import Tracer
    from .hierarchy import Hierarchy

#: Safety valve: no route in a well-formed network approaches this length.
MAX_HOPS = 10_000


class LiveSet(frozenset):
    """A frozen alive-set that caches its sorted id array.

    The terminal checks below (`_is_responsible`, `_is_xor_closest`) need the
    live ids *sorted* to binary-search the responsible node.  A plain ``set``
    forces an O(n log n) sort per terminal check, which dominates the churn
    and failure studies; a :class:`LiveSet` sorts once, lazily, and every
    route under the same failure pattern reuses it.  It *is* a ``frozenset``,
    so membership tests and equality with plain sets are unchanged.
    """

    __slots__ = ("_sorted",)

    @property
    def sorted_ids(self) -> List[int]:
        """The live ids in ascending order (computed once, then cached)."""
        try:
            return self._sorted
        except AttributeError:
            object.__setattr__(self, "_sorted", sorted(self))
            return self._sorted


def _sorted_live(alive: Set[int]) -> Sequence[int]:
    """Sorted view of an alive set, cached when it is a :class:`LiveSet`."""
    if isinstance(alive, LiveSet):
        return alive.sorted_ids
    return sorted(alive)


@dataclass
class Route:
    """The outcome of one routing attempt.

    ``path`` includes the source as its first element and, on success, the
    terminal node as its last.  ``hops`` is the number of edges traversed.
    """

    path: List[int]
    success: bool
    dest_key: int

    @property
    def source(self) -> int:
        return self.path[0]

    @property
    def terminal(self) -> int:
        return self.path[-1]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def latency(self, latency_fn: Callable[[int, int], float]) -> float:
        """Total latency under a pairwise latency function."""
        return sum(
            latency_fn(a, b) for a, b in zip(self.path, self.path[1:])
        )

    def edges(self) -> List[tuple]:
        """Consecutive (src, dst) hop pairs along the path."""
        return list(zip(self.path, self.path[1:]))

    def domain_crossings(self, hierarchy: "Hierarchy", level: int = 1) -> int:
        """Hops that cross a depth-``level`` domain boundary.

        A hop from ``a`` to ``b`` crosses at ``level`` when the two nodes'
        depth-``level`` ancestor domains differ — equivalently, when their
        lowest common ancestor lies *above* that level.  ``level=1`` counts
        crossings between top-level domains, the paper's fault-isolation and
        path-convergence quantity (Figures 7-8).
        """
        return sum(
            1
            for a, b in zip(self.path, self.path[1:])
            if hierarchy.path_of(a)[:level] != hierarchy.path_of(b)[:level]
        )


def _traced(route: Route, network: DHTNetwork, tracer: "Optional[Tracer]") -> Route:
    """Emit ``route`` to ``tracer`` (if any) and return it unchanged.

    Called once per finished route — never inside the hop loop — so routing
    with no tracer attached pays a single ``is None`` check per route.  The
    engines below inline this check at their terminal returns to avoid even
    the extra call; helpers outside this module use this function.
    """
    if tracer is not None:
        tracer.route(route, hierarchy=network.hierarchy)
    return route


def _best_ring_step(
    network: DHTNetwork,
    cur: int,
    dest: int,
    alive: Optional[Set[int]],
) -> Optional[int]:
    """Largest non-overshooting clockwise step from ``cur`` toward ``dest``.

    Returns the neighbor in the clockwise interval ``(cur, dest]`` closest to
    ``dest``, or ``None`` when no neighbor makes progress (``cur`` is then the
    terminal node for this key).
    """
    space = network.space
    remaining = space.ring_distance(cur, dest)
    if remaining == 0:
        return None
    neighbors = network.links[cur]
    if not neighbors:
        return None
    if alive is None:
        # Neighbors are sorted by id: the best step is the cyclic
        # predecessor-or-equal of dest, provided it lies in (cur, dest].
        cand = neighbors[predecessor_index(neighbors, dest)]
        dist = space.ring_distance(cur, cand)
        if 0 < dist <= remaining:
            return cand
        return None
    best = None
    best_dist = 0
    for cand in neighbors:
        if cand not in alive:
            continue
        dist = space.ring_distance(cur, cand)
        if 0 < dist <= remaining and dist > best_dist:
            best, best_dist = cand, dist
    return best


def route_ring(
    network: DHTNetwork,
    src: int,
    dest_key: int,
    alive: Optional[Set[int]] = None,
    tracer: "Optional[Tracer]" = None,
) -> Route:
    """Greedy clockwise routing (Chord / Crescendo / Symphony / Cacophony).

    Forwards to the neighbor closest to ``dest_key`` without overshooting it
    (Section 2.2).  Terminates at the node responsible for ``dest_key``; when
    ``dest_key`` is a node id, that is the node itself.  With an ``alive``
    filter, dead neighbors are skipped and the route fails if no live
    neighbor makes progress.  A ``tracer`` (see :mod:`repro.obs.trace`)
    records the finished route with per-hop hierarchy annotations; it never
    influences routing decisions.
    """
    path = [src]
    cur = src
    for _ in range(MAX_HOPS):
        nxt = _best_ring_step(network, cur, dest_key, alive)
        if nxt is None:
            # cur is the terminal node: responsible for the key (no neighbor
            # lies in (cur, key]) — or stuck because of failures.
            done = network.space.ring_distance(cur, dest_key) == 0 or _is_responsible(
                network, cur, dest_key, alive
            )
            result = Route(path, done, dest_key)
            if tracer is not None:
                tracer.route(result, hierarchy=network.hierarchy)
            return result
        path.append(nxt)
        cur = nxt
    raise RuntimeError(f"routing exceeded {MAX_HOPS} hops: likely a broken network")


def _is_responsible(
    network: DHTNetwork, node: int, key: int, alive: Optional[Set[int]]
) -> bool:
    """Whether ``node`` is responsible for ``key`` among live nodes."""
    if alive is None:
        return network.responsible_node(key) == node
    live_sorted = _sorted_live(alive)
    if not live_sorted:
        return False
    return live_sorted[predecessor_index(live_sorted, key)] == node


def route_xor(
    network: DHTNetwork,
    src: int,
    dest_key: int,
    alive: Optional[Set[int]] = None,
    tracer: "Optional[Tracer]" = None,
) -> Route:
    """Greedy XOR routing (Kademlia / Kandy / CAN bit-fixing equivalent).

    Each hop strictly decreases the XOR distance to ``dest_key``; terminates
    at a local minimum, which for a well-formed bucket construction is the
    globally XOR-closest node.  ``tracer`` records the finished route and
    never influences routing decisions.
    """
    space = network.space
    path = [src]
    cur = src
    cur_dist = space.xor_distance(cur, dest_key)
    for _ in range(MAX_HOPS):
        if cur_dist == 0:
            result = Route(path, True, dest_key)
            if tracer is not None:
                tracer.route(result, hierarchy=network.hierarchy)
            return result
        nxt = _best_xor_step(network, cur, dest_key, cur_dist, alive)
        if nxt is None:
            success = _is_xor_closest(network, cur, dest_key, alive)
            result = Route(path, success, dest_key)
            if tracer is not None:
                tracer.route(result, hierarchy=network.hierarchy)
            return result
        path.append(nxt)
        cur = nxt
        cur_dist = space.xor_distance(cur, dest_key)
    raise RuntimeError(f"routing exceeded {MAX_HOPS} hops: likely a broken network")


def _best_xor_step(
    network: DHTNetwork,
    cur: int,
    dest: int,
    cur_dist: int,
    alive: Optional[Set[int]],
) -> Optional[int]:
    """Neighbor of ``cur`` XOR-closest to ``dest``, if strictly closer."""
    neighbors = network.links[cur]
    if not neighbors:
        return None
    space = network.space
    if alive is None:
        # The XOR-nearest element of a sorted array is always adjacent to the
        # insertion point of the target (longest-common-prefix blocks are
        # contiguous in sorted order).
        pos = successor_index(neighbors, dest)
        best, best_dist = None, cur_dist
        for idx in (pos, (pos - 1) % len(neighbors)):
            cand = neighbors[idx]
            dist = space.xor_distance(cand, dest)
            if dist < best_dist:
                best, best_dist = cand, dist
        return best
    best, best_dist = None, cur_dist
    for cand in neighbors:
        if cand not in alive:
            continue
        dist = space.xor_distance(cand, dest)
        if dist < best_dist:
            best, best_dist = cand, dist
    return best


def _is_xor_closest(
    network: DHTNetwork, node: int, key: int, alive: Optional[Set[int]]
) -> bool:
    space = network.space
    ids = network.node_ids if alive is None else _sorted_live(alive)
    if not ids:
        return False
    pos = successor_index(ids, key)
    best = min(
        (space.xor_distance(ids[idx % len(ids)], key) for idx in (pos, pos - 1)),
        default=None,
    )
    # The global XOR-nearest node is adjacent to the insertion point too.
    return best is not None and space.xor_distance(node, key) == best


def route_ring_lookahead(
    network: DHTNetwork,
    src: int,
    dest_key: int,
    tracer: "Optional[Tracer]" = None,
) -> Route:
    """Greedy clockwise routing with one-step lookahead (Section 3.1).

    At each step the node examines its neighbors *and their neighbors*, and
    greedily picks the pair of steps that reduces the remaining clockwise
    distance the most (never overshooting); it then takes the first step of
    the best pair.  In Symphony this yields O(log n / log log n) hops — about
    40% fewer than plain greedy in practice.  ``tracer`` records the
    finished route and never influences routing decisions.
    """
    space = network.space
    path = [src]
    cur = src
    for _ in range(MAX_HOPS):
        remaining = space.ring_distance(cur, dest_key)
        if remaining == 0:
            result = Route(path, True, dest_key)
            if tracer is not None:
                tracer.route(result, hierarchy=network.hierarchy)
            return result
        best_first: Optional[int] = None
        best_covered = 0
        for nb in network.links[cur]:
            d1 = space.ring_distance(cur, nb)
            if not 0 < d1 <= remaining:
                continue
            if d1 > best_covered:
                best_first, best_covered = nb, d1
            # Second step taken greedily from nb's own table.
            nb2 = _best_ring_step(network, nb, dest_key, None)
            if nb2 is not None:
                d2 = d1 + space.ring_distance(nb, nb2)
                if d2 <= remaining and d2 > best_covered:
                    best_first, best_covered = nb, d2
        if best_first is None:
            done = _is_responsible(network, cur, dest_key, None)
            result = Route(path, done, dest_key)
            if tracer is not None:
                tracer.route(result, hierarchy=network.hierarchy)
            return result
        path.append(best_first)
        cur = best_first
    raise RuntimeError(f"routing exceeded {MAX_HOPS} hops: likely a broken network")


def route(network: DHTNetwork, src: int, dest_key: int, **kwargs) -> Route:
    """Route using the engine matching the network's declared metric."""
    if network.metric == "ring":
        return route_ring(network, src, dest_key, **kwargs)
    if network.metric == "xor":
        return route_xor(network, src, dest_key, **kwargs)
    raise ValueError(f"unknown metric {network.metric!r}")
