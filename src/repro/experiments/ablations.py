"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — measurements that justify (or quantify) the
decisions the paper states without evaluation:

- ``merge_economy``: Canon's condition (b) versus the naive
  full-Chord-at-every-level construction (degree blowup avoided).
- ``lookahead_gain``: Symphony/Cacophony greedy-with-lookahead hop savings
  (the paper cites ~40% for large networks).
- ``sampling_curve``: link latency versus proximity sample size s (the
  paper's "s = 32 is sufficient").
- ``group_target_sweep``: stretch of Chord (Prox.) / Crescendo (Prox.) as
  the expected group size varies.
- ``leaf_set_sweep``: lookup survival under crashes versus leaf-set size.
- ``cancan_alignment``: intra-domain locality of Can-Can with
  domain-aligned versus random identifier allocation.

Run: ``python -m repro.experiments ablations --scale smoke``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from ..analysis.metrics import sample_routing, stretch
from ..analysis.tables import Table
from ..core.idspace import IdSpace
from ..core.hierarchy import build_uniform_hierarchy
from ..core.routing import route_ring, route_ring_lookahead
from ..dhts.cacophony import CacophonyNetwork
from ..dhts.cancan import build_cancan
from ..dhts.crescendo import CrescendoNetwork
from ..dhts.naive import NaiveHierarchicalChord
from ..dhts.symphony import SymphonyNetwork
from ..perf.dynamic import make_protocol
from ..proximity.groups import route_grouped
from ..proximity.sampling import sampling_quality
from .common import build_topology_setup, seeded_rng


def merge_economy(scale: str = "smoke") -> Dict[str, float]:
    """Average degree: Crescendo vs naive per-level Chord (same placements)."""
    size = 1024 if scale != "smoke" else 512
    rng = seeded_rng("abl-merge", size)
    space = IdSpace()
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, 5, 3, rng)
    crescendo = CrescendoNetwork(space, hierarchy).build()
    naive = NaiveHierarchicalChord(space, hierarchy).build()
    crescendo_stats = sample_routing(crescendo, seeded_rng("abl-merge-r", 1), 200)
    naive_stats = sample_routing(naive, seeded_rng("abl-merge-r", 2), 200)
    return {
        "crescendo_degree": crescendo.average_degree(),
        "naive_degree": naive.average_degree(),
        "degree_ratio": naive.average_degree() / crescendo.average_degree(),
        "crescendo_hops": crescendo_stats.mean_hops,
        "naive_hops": naive_stats.mean_hops,
    }


def lookahead_gain(scale: str = "smoke") -> Dict[str, float]:
    """Hop savings of greedy-with-lookahead on Symphony and Cacophony."""
    size = 2048 if scale != "smoke" else 600
    rng = seeded_rng("abl-look", size)
    space = IdSpace()
    ids = space.random_ids(size, rng)
    flat = build_uniform_hierarchy(ids, 5, 1, rng)
    deep = build_uniform_hierarchy(ids, 5, 3, rng)
    out: Dict[str, float] = {}
    for name, net in (
        ("symphony", SymphonyNetwork(space, flat, seeded_rng("abl-look-s")).build()),
        ("cacophony", CacophonyNetwork(space, deep, seeded_rng("abl-look-c")).build()),
    ):
        pair_rng = seeded_rng("abl-look-p", name)
        pairs = [tuple(pair_rng.sample(ids, 2)) for _ in range(250)]
        greedy = statistics.mean(route_ring(net, a, b).hops for a, b in pairs)
        ahead = statistics.mean(
            route_ring_lookahead(net, a, b).hops for a, b in pairs
        )
        out[f"{name}_greedy"] = greedy
        out[f"{name}_lookahead"] = ahead
        out[f"{name}_saving"] = 1 - ahead / greedy
    return out


def sampling_curve(scale: str = "smoke") -> Dict[int, float]:
    """Mean link latency vs proximity sample size on the transit-stub model."""
    setup = build_topology_setup(512 if scale == "smoke" else 2048, "abl-sample")
    rng = seeded_rng("abl-sample-r")
    return sampling_quality(
        setup.node_ids, setup.latency, rng, sample_sizes=(1, 2, 4, 8, 16, 32, 64)
    )


def group_target_sweep(scale: str = "smoke") -> Dict[int, Tuple[float, float]]:
    """Stretch of the two prox systems as expected group size varies."""
    size = 512 if scale == "smoke" else 2048
    out: Dict[int, Tuple[float, float]] = {}
    for target in (4, 8, 16, 32):
        setup = build_topology_setup(size, ("abl-group", target), group_target=target)
        rng = seeded_rng("abl-group-r", target)
        chord_prox, _ = stretch(
            setup.chord_prox, rng, setup.latency, setup.direct_latency,
            samples=150, router=route_grouped,
        )
        crescendo_prox, _ = stretch(
            setup.crescendo_prox, rng, setup.latency, setup.direct_latency,
            samples=150, router=route_grouped,
        )
        out[target] = (chord_prox, crescendo_prox)
    return out


def leaf_set_sweep(scale: str = "smoke") -> Dict[int, float]:
    """Lookup delivery after crashing 15% of nodes, vs leaf-set size."""
    size = 150 if scale == "smoke" else 300
    out: Dict[int, float] = {}
    for leaf_set in (1, 2, 4, 8):
        rng = seeded_rng("abl-leaf", leaf_set)
        space = IdSpace()
        net = make_protocol(space, leaf_set_size=leaf_set)
        ids = space.random_ids(size, rng)
        for node_id in ids:
            net.join(node_id, (rng.choice("ab"), rng.choice("xy")))
        victims = rng.sample(ids, int(0.15 * size))
        for victim in victims:
            net.crash(victim)
        live = [i for i in ids if i not in set(victims)]
        delivered = 0
        trials = 120
        for _ in range(trials):
            a, b = rng.sample(live, 2)
            result = net.lookup(a, b)
            delivered += result.success and result.terminal == b
        out[leaf_set] = delivered / trials
    return out


def bucket_replication_sweep(scale: str = "smoke") -> Dict[int, float]:
    """Kademlia/Kandy: lookup delivery under crashes vs bucket size k.

    Real Kademlia keeps k contacts per bucket for resilience (the paper
    models one); this sweep quantifies what the redundancy buys on Kandy.
    """
    from ..core.routing import route_xor
    from ..dhts.kandy import KandyNetwork

    size = 400 if scale == "smoke" else 1000
    out: Dict[int, float] = {}
    for bucket_size in (1, 2, 3):
        rng = seeded_rng("abl-bucket", bucket_size)
        space = IdSpace()
        ids = space.random_ids(size, rng)
        hierarchy = build_uniform_hierarchy(ids, 4, 3, rng)
        net = KandyNetwork(space, hierarchy, rng, bucket_size=bucket_size).build()
        dead = set(rng.sample(ids, int(0.2 * size)))
        alive = set(ids) - dead
        live = sorted(alive)
        delivered = 0
        trials = 150
        for _ in range(trials):
            a, b = rng.sample(live, 2)
            result = route_xor(net, a, b, alive=alive)
            delivered += result.success and result.terminal == b
        out[bucket_size] = delivered / trials
    return out


def cancan_alignment(scale: str = "smoke") -> Dict[str, float]:
    """Intra-domain locality fraction: aligned vs random CAN identifiers."""
    size = 300 if scale == "smoke" else 600
    rng = seeded_rng("abl-can", size)
    paths = [
        (str(rng.randrange(4)), str(rng.randrange(4))) for _ in range(size)
    ]
    out: Dict[str, float] = {}
    for label, aligned in (("aligned", True), ("random", False)):
        net = build_cancan(
            IdSpace(16), size, seeded_rng("abl-can-t", label), paths,
            align_domains=aligned,
        )
        probe_rng = seeded_rng("abl-can-p", label)
        local_fraction: List[float] = []
        trials = 0
        while trials < 150:
            src = probe_rng.choice(net.node_ids)
            domain = net.hierarchy.path_of(src)
            peers = [m for m in net.hierarchy.members(domain) if m != src]
            if not peers:
                continue
            dst = probe_rng.choice(peers)
            key = net.prefixes[dst].padded(net.space.bits)
            route = net.route_bitfix(src, key)
            inside = sum(
                1 for n in route.path if net.hierarchy.path_of(n) == domain
            )
            local_fraction.append(inside / len(route.path))
            trials += 1
        out[label] = statistics.mean(local_fraction)
    return out


def run(scale: str = "smoke") -> Table:
    """Run every ablation and render the one-row-per-ablation table."""
    table = Table("Ablations — design-choice measurements", ["ablation", "result"])
    economy = merge_economy(scale)
    table.add_row(
        "merge economy (degree)",
        f"crescendo {economy['crescendo_degree']:.1f} vs naive "
        f"{economy['naive_degree']:.1f} ({economy['degree_ratio']:.2f}x)",
    )
    look = lookahead_gain(scale)
    table.add_row(
        "lookahead hop saving",
        f"symphony {look['symphony_saving']:.0%}, "
        f"cacophony {look['cacophony_saving']:.0%}",
    )
    curve = sampling_curve(scale)
    table.add_row(
        "sampling curve (ms)",
        ", ".join(f"s={s}:{v:.0f}" for s, v in sorted(curve.items())),
    )
    groups = group_target_sweep(scale)
    table.add_row(
        "group target sweep (stretch)",
        ", ".join(
            f"g={g}: chord {c:.2f} / crescendo {r:.2f}"
            for g, (c, r) in sorted(groups.items())
        ),
    )
    leaf = leaf_set_sweep(scale)
    table.add_row(
        "leaf-set size vs delivery",
        ", ".join(f"r={r}:{v:.0%}" for r, v in sorted(leaf.items())),
    )
    buckets = bucket_replication_sweep(scale)
    table.add_row(
        "kandy bucket size vs delivery",
        ", ".join(f"k={k}:{v:.0%}" for k, v in sorted(buckets.items())),
    )
    can = cancan_alignment(scale)
    table.add_row(
        "can-can locality",
        f"aligned {can['aligned']:.2f} vs random {can['random']:.2f}",
    )
    return table
