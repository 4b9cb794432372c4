"""The full zoo: every flat DHT vs its Canonical version, one table.

The paper's §3 thesis, quantified across *all five* families at once: each
Canonical construction keeps its flat sibling's ~log2(n) state budget and
near-identical hop count, while adding the hierarchy's locality.  We also
report the intra-domain hop fraction — the share of each route spent inside
the endpoints' lowest common domain's side of the network — which is where
the Canon versions separate from the flat ones.

Run: ``python -m repro.experiments zoo --scale smoke``.
"""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

from ..analysis.tables import Table
from ..core.idspace import IdSpace
from ..core.hierarchy import build_uniform_hierarchy
from ..core.routing import route_ring, route_xor
from ..dhts.cacophony import CacophonyNetwork
from ..dhts.chord import ChordNetwork
from ..dhts.crescendo import CrescendoNetwork
from ..dhts.kademlia import KademliaNetwork
from ..dhts.kandy import KandyNetwork
from ..dhts.ndchord import NDChordNetwork, NDCrescendoNetwork
from ..dhts.symphony import SymphonyNetwork
from .common import get_scale, seeded_rng

FAMILIES = ("chord", "symphony", "ndchord", "kademlia")


def _build(family: str, space, flat_h, deep_h, rng):
    if family == "chord":
        return (
            ChordNetwork(space, flat_h).build(),
            CrescendoNetwork(space, deep_h).build(),
            route_ring,
        )
    if family == "symphony":
        return (
            SymphonyNetwork(space, flat_h, rng).build(),
            CacophonyNetwork(space, deep_h, rng).build(),
            route_ring,
        )
    if family == "ndchord":
        return (
            NDChordNetwork(space, flat_h, rng).build(),
            NDCrescendoNetwork(space, deep_h, rng).build(),
            route_ring,
        )
    if family == "kademlia":
        return (
            KademliaNetwork(space, flat_h, rng).build(),
            KandyNetwork(space, deep_h, rng).build(),
            route_xor,
        )
    raise ValueError(f"unknown family {family!r}")


def measurements(
    scale: str = "smoke",
) -> Dict[Tuple[str, str], Tuple[float, float, float]]:
    """(family, variant) -> (avg degree, avg hops, locality fraction).

    Locality fraction: over same-depth-1-domain pairs, the share of route
    hops that stay inside that domain.
    """
    cfg = get_scale(scale)
    size = 800 if scale == "smoke" else 2000
    rng = seeded_rng("zoo", size)
    space = IdSpace()
    ids = space.random_ids(size, rng)
    flat_h = build_uniform_hierarchy(ids, 5, 1, seeded_rng("zoo-h", 1))
    deep_h = build_uniform_hierarchy(ids, 5, 3, seeded_rng("zoo-h", 3))

    out: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
    pair_rng = seeded_rng("zoo-pairs", size)
    pairs = [tuple(pair_rng.sample(ids, 2)) for _ in range(cfg.route_samples)]
    for family in FAMILIES:
        flat_net, canon_net, router = _build(
            family, space, flat_h, deep_h, seeded_rng("zoo-b", family)
        )
        for variant, net, hierarchy in (
            ("flat", flat_net, flat_h),
            ("canon", canon_net, deep_h),
        ):
            hops = []
            for a, b in pairs:
                result = router(net, a, b)
                if result.success and result.terminal == b:
                    hops.append(result.hops)
            locality = _locality_fraction(net, deep_h, router, pair_rng)
            out[(family, variant)] = (
                net.average_degree(),
                statistics.mean(hops),
                locality,
            )
    return out


def _locality_fraction(net, hierarchy, router, rng, trials: int = 120) -> float:
    fractions = []
    done = 0
    ids = net.node_ids
    while done < trials:
        a = rng.choice(ids)
        domain = hierarchy.path_of(a)[:1]
        peers = [m for m in hierarchy.members(domain) if m != a]
        if not peers:
            continue
        b = rng.choice(peers)
        result = router(net, a, b)
        if not result.success:
            continue
        inside = sum(
            1 for n in result.path if hierarchy.path_of(n)[:1] == domain
        )
        fractions.append(inside / len(result.path))
        done += 1
    return statistics.mean(fractions)


def run(scale: str = "smoke") -> Table:
    """Render the flat-vs-Canonical comparison across all families."""
    data = measurements(scale)
    table = Table(
        "The zoo — flat vs Canonical, all families",
        ["family", "variant", "avg degree", "avg hops", "intra-domain fraction"],
    )
    for family in FAMILIES:
        for variant in ("flat", "canon"):
            degree, hops, locality = data[(family, variant)]
            table.add_row(family, variant, degree, hops, locality)
    return table
