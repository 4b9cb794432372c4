"""Deterministic serving testbeds shared by the CLI, benchmark and tests.

One seeded recipe — FUZZ-style joins, stabilize to convergence, optional
transit-stub latency table — so the CLI quickstart, the sustained-
throughput benchmark and the differential tests all serve the *same*
network for the same ``(size, seed)`` and their numbers are comparable.
"""

from __future__ import annotations

import random
from typing import Callable, Tuple

import numpy as np

from ..core.idspace import IdSpace
from ..perf.dynamic import make_protocol
from ..perf.latency import LatencyTable
from ..topology.transit_stub import TopologyParams, TransitStubTopology
from ..verify.fuzz import FUZZ_PATHS

__all__ = [
    "SERVE_TOPOLOGY",
    "build_serving_net",
    "domain_labeler",
    "lookup_workload",
]

#: Router graph for serving latency: the scenario-sized transit-stub shape
#: (104 routers) — node counts scale independently of the router count.
SERVE_TOPOLOGY = TopologyParams(
    transit_domains=2,
    transit_per_domain=4,
    stub_domains_per_transit=3,
    stub_per_domain=4,
)


def build_serving_net(
    size: int,
    seed: int = 0,
    with_latency: bool = True,
):
    """A settled ``size``-node protocol net (plus its latency table).

    Returns ``(net, latency)``; ``latency`` is None when
    ``with_latency`` is off.  Identical ``(size, seed)`` yield
    bit-identical networks.
    """
    rng = random.Random(f"serve-testbed:{seed}")
    space = IdSpace(32)
    net = make_protocol(space)
    for node_id in space.random_ids(size, rng):
        net.join(node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))])
    net.stabilize_to_convergence()
    latency = None
    if with_latency:
        topo_rng = random.Random(f"serve-topology:{seed}")
        topology = TransitStubTopology(SERVE_TOPOLOGY, topo_rng)
        node_ids = sorted(net.nodes)
        for node_id in node_ids:
            topology.attach_node(node_id)
        latency = LatencyTable.from_topology(topology, node_ids)
    return net, latency


def domain_labeler(net) -> Callable[[int], str]:
    """Top-level-domain labeler for admission control / ACL middleware."""

    def domain_of(node_id: int) -> str:
        node = net.nodes.get(node_id)
        return str(node.path[0]) if node is not None else ""

    return domain_of


def lookup_workload(
    net, count: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` deterministic (live source, random key) lookup pairs."""
    rng = random.Random(f"serve-workload:{seed}")
    live = sorted(net.live_view())
    if not live:
        raise ValueError("no live nodes to serve from")
    sources = np.asarray(
        [live[rng.randrange(len(live))] for _ in range(count)], dtype=np.uint64
    )
    keys = np.asarray(
        [rng.randrange(net.space.size) for _ in range(count)], dtype=np.uint64
    )
    return sources, keys
