"""The fused latency accumulator: tables, kernels, engines — bit-for-bit.

The contract under test (see ``repro.perf.latency``): every fast path that
prices hops — the batch routing kernels, :meth:`LatencyTable.path_ms`, the
fast dynamic engine's lookup pricing — produces *exactly* the float64 total
the scalar reference fold produces, not merely a close one.  Every latency
assertion here is ``==``, never ``pytest.approx``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.idspace import IdSpace
from repro.core.routing import route, route_ring
from repro.analysis.metrics import sample_routing
from repro.dhts.crescendo import CrescendoNetwork
from repro.obs import metrics as obs_metrics
from repro.perf.latency import LatencyTable
from repro.topology.transit_stub import (
    HOST_STUB_MS,
    TopologyParams,
    TransitStubTopology,
)
from repro.verify.fuzz import FuzzConfig, bootstrap_network, generate_schedule
from repro.verify.oracles import compare_protocols, compare_routing

SMALL_PARAMS = TopologyParams(
    transit_domains=2,
    transit_per_domain=2,
    stub_domains_per_transit=2,
    stub_per_domain=4,
)


@pytest.fixture(scope="module")
def attached():
    """A small topology with 64 nodes attached, plus a built Crescendo."""
    rng = random.Random("perf-latency")
    topology = TransitStubTopology(SMALL_PARAMS, rng=rng)
    space = IdSpace(32)
    node_ids = space.random_ids(64, rng)
    hierarchy = topology.attach_nodes(node_ids, rng)
    net = CrescendoNetwork(space, hierarchy).build()
    return topology, space, node_ids, net


# ------------------------------------------------------------ LatencyTable


def test_table_matches_scalar_oracle(attached):
    topology, _, node_ids, _ = attached
    table = topology.latency_table()
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.choice(node_ids), rng.choice(node_ids)
        assert table.node_latency(a, b) == topology.node_latency(a, b)
    # A table is itself a LatencyFn.
    a, b = node_ids[0], node_ids[1]
    assert table(a, b) == topology.node_latency(a, b)
    assert table(a, a) == 0.0


def test_table_sorts_unsorted_input(attached):
    topology, _, node_ids, _ = attached
    shuffled = list(node_ids)
    random.Random(2).shuffle(shuffled)
    routers = [topology.router_of(n) for n in shuffled]
    table = LatencyTable(shuffled, routers, topology._latency, host_ms=HOST_STUB_MS)
    assert list(table.node_ids) == sorted(node_ids)
    a, b = node_ids[3], node_ids[7]
    assert table.node_latency(a, b) == topology.node_latency(a, b)


def test_positions_raises_on_unattached_id(attached):
    topology, _, node_ids, _ = attached
    table = topology.latency_table()
    stranger = max(node_ids) + 1
    with pytest.raises(KeyError, match="not in this latency table"):
        table.positions(np.asarray([stranger], dtype=np.uint64))
    with pytest.raises(KeyError, match=str(stranger)):
        table.node_latency(node_ids[0], stranger)


def test_router_of_names_the_node_and_population(attached):
    topology, _, node_ids, _ = attached
    stranger = max(node_ids) + 99
    with pytest.raises(KeyError) as err:
        topology.router_of(stranger)
    message = str(err.value)
    assert str(stranger) in message
    assert "not attached" in message
    assert str(len(node_ids)) in message  # how many *are* attached


def test_path_ms_is_the_scalar_left_fold(attached):
    topology, _, node_ids, _ = attached
    table = topology.latency_table()
    rng = random.Random(3)
    for _ in range(20):
        path = [rng.choice(node_ids) for _ in range(rng.randrange(2, 9))]
        fold = 0.0
        for a, b in zip(path, path[1:]):
            fold += topology.node_latency(a, b)
        assert table.path_ms(path) == fold
    assert table.path_ms([node_ids[0]]) == 0.0


def test_hop_ms_vectorized_matches_scalar(attached):
    topology, _, node_ids, _ = attached
    table = topology.latency_table()
    a = np.asarray(node_ids[:10], dtype=np.uint64)
    b = np.asarray(node_ids[10:20], dtype=np.uint64)
    out = table.hop_ms(a, b)
    for i in range(10):
        assert out[i] == topology.node_latency(int(a[i]), int(b[i]))
    same = table.hop_ms(a, a)
    assert np.all(same == 0.0)


def test_cached_table_invalidated_by_attachment(attached):
    topology, space, node_ids, _ = attached
    first = topology.latency_table()
    assert topology.latency_table() is first  # cached
    newcomer = max(node_ids) + 12345
    topology.attach_node(newcomer, random.Random(4))
    second = topology.latency_table()
    assert second is not first
    assert topology.latency_table().path_ms([node_ids[0], newcomer]) == (
        topology.node_latency(node_ids[0], newcomer)
    )


def test_latency_matrix_bytes_gauge():
    with obs_metrics.collecting() as registry:
        topology = TransitStubTopology(SMALL_PARAMS, rng=random.Random(5))
    snap = registry.snapshot()
    assert snap.gauges["topology.latency_matrix_bytes"] == topology._latency.nbytes
    # float32 matrix: 4 bytes per router pair.
    assert topology._latency.nbytes == 4 * SMALL_PARAMS.router_count**2


# ------------------------------------------- engines, bit-for-bit equality


def test_compare_routing_latency_oracle(attached):
    topology, _, node_ids, net = attached
    table = topology.latency_table(node_ids)
    rng = random.Random(6)
    pairs = [
        (rng.choice(node_ids), rng.choice(node_ids)) for _ in range(60)
    ]
    assert compare_routing(net, pairs, latency=table) == []


def test_scalar_vs_batch_slo_snapshots_bit_identical(attached):
    topology, _, _, net = attached

    def run(router):
        rng = random.Random("slo-parity")
        with obs_metrics.collecting() as registry:
            stats = sample_routing(
                net,
                rng,
                samples=80,
                router=router,
                latency_fn=topology.node_latency,
                slo_label="parity",
            )
        return stats, registry.snapshot()

    # Only ``route_ring`` itself selects the kernels; a wrapper around it
    # routes the same hops through the scalar engine.
    scalar_stats, scalar_snap = run(lambda n, a, b: route_ring(n, a, b))
    batch_stats, batch_snap = run(route_ring)
    assert scalar_stats.mean_latency == batch_stats.mean_latency
    assert scalar_stats.delivered == batch_stats.delivered

    def strip_perf(snapshot):
        data = dict(snapshot.data)
        data["counters"] = {
            k: v for k, v in data["counters"].items() if not k.startswith("perf.")
        }
        return data

    assert strip_perf(scalar_snap) == strip_perf(batch_snap)
    # Each engine really ran (this test would otherwise prove nothing).
    assert scalar_snap.counters.get("perf.batch.routes", 0) == 0
    assert batch_snap.counters.get("perf.batch.routes", 0) > 0


def test_batch_latency_equals_scalar_route_fold(attached):
    topology, _, node_ids, net = attached
    table = topology.latency_table(node_ids)
    from repro.perf.kernels import batch_route

    rng = random.Random(7)
    pairs = [(rng.choice(node_ids), rng.choice(node_ids)) for _ in range(40)]
    batch = batch_route(net, pairs, paths=True, latency=table)
    for idx, (src, key) in enumerate(pairs):
        slow = route(net, src, key)
        assert slow.latency(topology.node_latency) == float(batch.latency_ms[idx])


def test_one_table_holds_one_alignment_across_networks(attached):
    """Five networks routed against one table: each batch aligns the
    table to its network's ids, only the last alignment is held, and
    every latency is still the scalar fold, the first network's included
    when it comes back after the other four."""
    topology, space, node_ids, net = attached
    from repro.dhts.chord import ChordNetwork
    from repro.dhts.kademlia import KademliaNetwork
    from repro.dhts.kandy import KandyNetwork
    from repro.perf.kernels import batch_route, compile_network

    hierarchy = net.hierarchy
    nets = [
        net,
        ChordNetwork(space, hierarchy).build(),
        KademliaNetwork(space, hierarchy, None, 1).build(),
        KandyNetwork(space, hierarchy, None, 1).build(),
        CrescendoNetwork(space, hierarchy).build(),
    ]
    table = LatencyTable.from_topology(topology, node_ids)
    rng = random.Random(8)
    pairs = [(rng.choice(node_ids), rng.choice(node_ids)) for _ in range(40)]
    for network in nets + nets[:1]:
        batch = batch_route(network, pairs, latency=table)
        assert table._aligned[0] is compile_network(network).ids
        for idx, (src, key) in enumerate(pairs):
            slow = route(network, src, key)
            assert slow.latency(topology.node_latency) == float(batch.latency_ms[idx])


def test_compare_protocols_latency_oracle():
    config = FuzzConfig(seed=21, events=40, population=32, checkpoints=1)
    schedule = generate_schedule(config)
    topology = TransitStubTopology(SMALL_PARAMS, rng=random.Random(8))
    probe = bootstrap_network(config, engine="reference")
    for node_id in sorted(probe.nodes):
        topology.attach_node(node_id)
    for event in schedule:
        if event.kind == "join" and event.node not in probe.nodes:
            topology.attach_node(event.node)
    table = topology.latency_table()
    comparison = compare_protocols(
        lambda engine: bootstrap_network(config, engine=engine),
        schedule,
        latency=table,
    )
    assert comparison.equivalent, comparison.violations[:3]
    # The schedule exercised lookups, so the latency oracle saw real paths.
    assert comparison.fast_report.lookup_paths


def test_compare_protocols_detects_latency_divergence():
    """A table whose gather disagrees with the scalar fold must be caught."""

    class BrokenTable(LatencyTable):
        def path_ms(self, path):
            return super().path_ms(path) + (1e-9 if len(path) >= 2 else 0.0)

    config = FuzzConfig(seed=21, events=40, population=32, checkpoints=1)
    schedule = generate_schedule(config)
    topology = TransitStubTopology(SMALL_PARAMS, rng=random.Random(9))
    probe = bootstrap_network(config, engine="reference")
    for node_id in sorted(probe.nodes):
        topology.attach_node(node_id)
    for event in schedule:
        if event.kind == "join" and event.node not in probe.nodes:
            topology.attach_node(event.node)
    good = topology.latency_table()
    broken = BrokenTable(
        [int(n) for n in good.node_ids],
        [int(r) for r in good.routers],
        good.matrix,
        host_ms=good.host_ms,
    )
    comparison = compare_protocols(
        lambda engine: bootstrap_network(config, engine=engine),
        schedule,
        latency=broken,
    )
    assert any("latency" in v.message for v in comparison.violations)
