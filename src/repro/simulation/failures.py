"""Failure injection and fault-isolation measurements (Section 2.2).

The *locality of intra-domain paths* property means a route between two
nodes of a domain D never leaves D — so interactions inside D can neither be
interfered with nor affected by failures outside D.  Flat Chord has no such
guarantee: its fingers point anywhere, and killing nodes outside D strands
or degrades intra-D routes.

These helpers kill node sets (whole domains' complements, or random
fractions) and measure routing success and hop inflation for intra-domain
traffic, for any ring-metric network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

from ..core.hierarchy import DomainPath
from ..core.network import DHTNetwork
from ..core.routing import LiveSet, route_ring


def fail_outside_domain(network: DHTNetwork, domain: DomainPath) -> Set[int]:
    """Alive set after killing every node *outside* the given domain.

    Returned as a :class:`~repro.core.routing.LiveSet` so the per-route
    terminal checks reuse one cached sorted view instead of re-sorting.
    """
    return LiveSet(network.hierarchy.members(domain))


def fail_random(network: DHTNetwork, fraction: float, rng) -> Set[int]:
    """Alive set after killing a random fraction of all nodes.

    Returned as a :class:`~repro.core.routing.LiveSet` (see above).
    """
    if not 0 <= fraction < 1:
        raise ValueError("fraction must be in [0, 1)")
    ids = list(network.node_ids)
    dead = set(rng.sample(ids, int(len(ids) * fraction)))
    return LiveSet(set(ids) - dead)


@dataclass
class IsolationReport:
    """Outcome of intra-domain routing under external failures."""

    samples: int
    delivered: int
    avg_hops_before: float
    avg_hops_after: float

    @property
    def success_rate(self) -> float:
        return self.delivered / self.samples if self.samples else 0.0

    @property
    def hop_inflation(self) -> float:
        """Ratio of surviving-route hops to failure-free hops."""
        if not self.avg_hops_before:
            return 1.0
        return self.avg_hops_after / self.avg_hops_before


def intra_domain_isolation(
    network: DHTNetwork,
    domain: DomainPath,
    rng,
    samples: int = 200,
) -> IsolationReport:
    """Route between random same-domain pairs after killing all outsiders.

    For Crescendo the paper's locality property predicts a 100% success rate
    with *identical* hops (the routes never used outside nodes); for flat
    Chord both metrics degrade.
    """
    members = network.hierarchy.members(domain)
    if len(members) < 2:
        raise ValueError(f"domain {domain!r} needs >= 2 members")
    alive = fail_outside_domain(network, domain)
    delivered = 0
    hops_before: List[int] = []
    hops_after: List[int] = []
    for _ in range(samples):
        src, dst = rng.sample(members, 2)
        clean = route_ring(network, src, dst)
        if clean.success:
            hops_before.append(clean.hops)
        failed = route_ring(network, src, dst, alive=alive)
        if failed.success and failed.terminal == dst:
            delivered += 1
            hops_after.append(failed.hops)
    return IsolationReport(
        samples=samples,
        delivered=delivered,
        avg_hops_before=_mean(hops_before),
        avg_hops_after=_mean(hops_after),
    )


def path_stays_inside(network: DHTNetwork, src: int, dst: int) -> bool:
    """Check the locality property for one pair: no hop leaves their LCA domain."""
    lca_path = network.hierarchy.lca_of_nodes(src, dst)
    route = route_ring(network, src, dst)
    hierarchy = network.hierarchy
    return all(
        hierarchy.path_of(node)[: len(lca_path)] == lca_path for node in route.path
    )


def survival_under_random_failures(
    network: DHTNetwork,
    fractions: Sequence[float],
    rng,
    samples: int = 200,
) -> List[float]:
    """Delivery rate between random live pairs at increasing failure levels.

    Static-table resilience (no repair protocol running): measures how much
    slack the link structure itself has.
    """
    rates: List[float] = []
    for fraction in fractions:
        alive = fail_random(network, fraction, rng)
        live = alive.sorted_ids
        if len(live) < 2:
            rates.append(0.0)
            continue
        delivered = 0
        for _ in range(samples):
            src, dst = rng.sample(live, 2)
            result = route_ring(network, src, dst, alive=alive)
            delivered += result.success and result.terminal == dst
        rates.append(delivered / samples)
    return rates


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
