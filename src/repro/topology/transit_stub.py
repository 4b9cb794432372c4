"""A GT-ITM-style transit-stub internet model (Section 5.2).

The paper generates a 2040-router graph with GT-ITM: routers are grouped
into *transit domains* of *transit nodes*; a *stub domain* (a small graph of
*stub nodes*) hangs off each transit node.  Link latencies are fixed by
class: 100 ms transit-transit, 20 ms transit-stub, 5 ms stub-stub, and 1 ms
from an end host (DHT node) to its stub router.

This module reproduces that model from scratch (GT-ITM itself is not
available offline): the defaults (4 transit domains x 10 transit nodes x 5
stub domains x 10 stub nodes) give exactly 2040 routers.  The paper consumes
only (a) pairwise router latencies and (b) the natural five-level location
hierarchy (root, transit domain, transit node, stub domain, stub node), both
of which are exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from ..core.hierarchy import DomainPath, Hierarchy
from ..obs import metrics as obs_metrics

TRANSIT_TRANSIT_MS = 100.0
TRANSIT_STUB_MS = 20.0
STUB_STUB_MS = 5.0
HOST_STUB_MS = 1.0


@dataclass(frozen=True)
class TopologyParams:
    """Shape of the transit-stub graph.  Defaults reproduce the paper's 2040 routers."""

    transit_domains: int = 4
    transit_per_domain: int = 10
    stub_domains_per_transit: int = 5
    stub_per_domain: int = 10
    #: extra random edges per transit-domain graph / stub-domain graph beyond
    #: the spanning ring that guarantees connectivity.
    extra_edge_fraction: float = 0.3

    @property
    def transit_count(self) -> int:
        return self.transit_domains * self.transit_per_domain

    @property
    def stub_count(self) -> int:
        return (
            self.transit_count * self.stub_domains_per_transit * self.stub_per_domain
        )

    @property
    def router_count(self) -> int:
        return self.transit_count + self.stub_count


class TransitStubTopology:
    """The router graph, its all-pairs latencies, and DHT node attachment.

    Routers are integers: transit routers first, then stub routers.  Each
    stub router carries a *location* tuple ``(transit_domain, transit_node,
    stub_domain, stub_node)`` which becomes the DHT node's domain path.
    """

    def __init__(self, params: TopologyParams = TopologyParams(), rng=None) -> None:
        import random as _random

        self.params = params
        self.rng = rng if rng is not None else _random.Random(0)
        self._edges: List[Tuple[int, int, float]] = []
        self.stub_location: Dict[int, Tuple[int, int, int, int]] = {}
        self._build_graph()
        self._latency = self._all_pairs_latency()
        self._attachment: Dict[int, int] = {}
        self._latency_table = None  # lazy LatencyTable, dropped on attach
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.gauge("topology.latency_matrix_bytes").set(
                self._latency.nbytes
            )

    # ------------------------------------------------------------- building

    def _connected_random_graph(
        self, vertices: Sequence[int], latency: float
    ) -> None:
        """A spanning ring plus random chords — connected, low diameter."""
        count = len(vertices)
        order = list(vertices)
        self.rng.shuffle(order)
        for i in range(count):
            if count > 1:
                self._edges.append((order[i], order[(i + 1) % count], latency))
        extra = int(count * self.params.extra_edge_fraction)
        for _ in range(extra):
            a, b = self.rng.sample(order, 2) if count > 1 else (order[0], order[0])
            if a != b:
                self._edges.append((a, b, latency))

    def _build_graph(self) -> None:
        p = self.params
        # Transit routers: ids [0, transit_count).
        transit_of_domain: List[List[int]] = []
        nxt = 0
        for _ in range(p.transit_domains):
            domain = list(range(nxt, nxt + p.transit_per_domain))
            nxt += p.transit_per_domain
            transit_of_domain.append(domain)
            self._connected_random_graph(domain, TRANSIT_TRANSIT_MS)
        # Inter-domain transit edges: a ring of domains plus random chords,
        # connecting random representative routers (100 ms).
        for i in range(p.transit_domains):
            if p.transit_domains > 1:
                a = self.rng.choice(transit_of_domain[i])
                b = self.rng.choice(transit_of_domain[(i + 1) % p.transit_domains])
                self._edges.append((a, b, TRANSIT_TRANSIT_MS))
        # Stub routers: ids [transit_count, router_count).
        sid = p.transit_count
        for td in range(p.transit_domains):
            for tn_index, transit_router in enumerate(transit_of_domain[td]):
                for sd in range(p.stub_domains_per_transit):
                    stub_routers = list(range(sid, sid + p.stub_per_domain))
                    sid += p.stub_per_domain
                    for sn_index, router in enumerate(stub_routers):
                        self.stub_location[router] = (td, tn_index, sd, sn_index)
                    self._connected_random_graph(stub_routers, STUB_STUB_MS)
                    # Attach the stub domain to its transit node (20 ms).
                    gateway = self.rng.choice(stub_routers)
                    self._edges.append((transit_router, gateway, TRANSIT_STUB_MS))

    def _all_pairs_latency(self) -> np.ndarray:
        count = self.params.router_count
        rows = [a for a, _, _ in self._edges] + [b for _, b, _ in self._edges]
        cols = [b for _, b, _ in self._edges] + [a for a, _, _ in self._edges]
        vals = [w for _, _, w in self._edges] * 2
        graph = csr_matrix((vals, (rows, cols)), shape=(count, count))
        dist = shortest_path(graph, method="D", directed=False)
        if not np.isfinite(dist).all():
            raise RuntimeError("transit-stub graph is not connected")
        return dist.astype(np.float32)

    # ------------------------------------------------------------ interface

    @property
    def stub_routers(self) -> List[int]:
        # stub_location is fixed after _build_graph, so sort once.
        cached = self.__dict__.get("_stub_routers")
        if cached is None:
            cached = self.__dict__["_stub_routers"] = sorted(self.stub_location)
        return cached

    def router_latency(self, a: int, b: int) -> float:
        """Shortest-path latency between two routers (ms)."""
        return float(self._latency[a, b])

    def attach_nodes(
        self, node_ids: Sequence[int], rng=None
    ) -> Hierarchy:
        """Attach DHT nodes uniformly to stub routers (1 ms access links).

        Returns the induced five-level hierarchy: each node's domain path is
        ``(transit_domain, transit_node, stub_domain, stub_node)``, giving
        rings at the root, transit-domain, transit-node, stub-domain and
        stub-node levels.
        """
        rng = rng if rng is not None else self.rng
        hierarchy = Hierarchy()
        for node_id in node_ids:
            hierarchy.place(node_id, self.attach_node(node_id, rng))
        return hierarchy

    def attach_node(self, node_id: int, rng=None) -> DomainPath:
        """Attach one DHT node to a uniform random stub router.

        Returns the node's domain path; used by churn drivers to attach
        nodes that join after the initial population.  Draws exactly the
        randomness one :meth:`attach_nodes` iteration draws.
        """
        rng = rng if rng is not None else self.rng
        stubs = self.stub_routers
        router = stubs[rng.randrange(len(stubs))]
        self._attachment[node_id] = router
        self._latency_table = None
        td, tn, sd, sn = self.stub_location[router]
        path: DomainPath = (f"t{td}", f"n{tn}", f"s{sd}", f"r{sn}")
        return path

    def router_of(self, node_id: int) -> int:
        """The stub router a DHT node is attached to."""
        try:
            return self._attachment[node_id]
        except KeyError:
            raise KeyError(
                f"node {node_id} is not attached to this topology "
                f"(call attach_nodes/attach_node first; "
                f"{len(self._attachment)} nodes are attached)"
            ) from None

    def node_latency(self, a: int, b: int) -> float:
        """End-to-end latency between two attached DHT nodes (ms)."""
        if a == b:
            return 0.0
        ra, rb = self.router_of(a), self.router_of(b)
        return 2 * HOST_STUB_MS + float(self._latency[ra, rb])

    def latency_table(self, node_ids: Optional[Sequence[int]] = None):
        """A :class:`repro.perf.latency.LatencyTable` over the attachment.

        With no ``node_ids`` the table covers every attached node and is
        cached until the next attachment; the batch routing kernels and
        the measurement harness use it to accumulate per-hop latency with
        vectorized gathers instead of one :meth:`node_latency` call per
        hop (totals stay bit-identical — see :mod:`repro.perf.latency`).
        """
        from ..perf.latency import LatencyTable

        if node_ids is not None:
            return LatencyTable.from_topology(self, node_ids)
        if self._latency_table is None:
            self._latency_table = LatencyTable.from_topology(self)
        return self._latency_table

    def average_direct_latency(self, samples: int, rng=None) -> float:
        """Mean node-to-node shortest-path latency over random pairs.

        This is the paper's stretch denominator: stretch 1 means overlay
        routing is as fast as direct IP routing between the two hosts.
        """
        rng = rng if rng is not None else self.rng
        nodes = list(self._attachment)
        if len(nodes) < 2:
            return 0.0
        total = 0.0
        for _ in range(samples):
            a, b = rng.sample(nodes, 2)
            total += self.node_latency(a, b)
        return total / samples
