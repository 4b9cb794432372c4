"""Batch kernels vs scalar engines: hop-for-hop path identity.

The batch kernels of :mod:`repro.perf.kernels` claim to replicate every
branch of the scalar greedy engines exactly.  These property tests verify
it route-by-route — full path, success flag, terminal and hop count — for
all five flat and all five Canonical DHT families, over multiple seeds,
node-id *and* arbitrary-key destinations, with and without alive filters.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_view
from repro import IdSpace, build_uniform_hierarchy
from repro.analysis.metrics import sample_routing
from repro.core.routing import (
    LiveSet,
    _best_ring_step,
    _best_xor_step,
    _is_responsible,
    _is_xor_closest,
    route_ring,
    route_xor,
)
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.can import build_can
from repro.dhts.cancan import build_cancan
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.ndchord import NDChordNetwork, NDCrescendoNetwork
from repro.dhts.symphony import SymphonyNetwork
from repro.perf.kernels import (
    CompiledNetwork,
    batch_route,
    compile_network,
)
from repro.perf.latency import LatencyTable

SIZE = 220
BITS = 16


def _hierarchy(space, rng, levels=3):
    ids = space.random_ids(SIZE, rng)
    return build_uniform_hierarchy(ids, 4, levels, rng)


def _cancan_paths(rng):
    return [
        tuple(str(rng.randrange(4)) for _ in range(2)) for _ in range(SIZE)
    ]


FAMILIES = {
    "chord": lambda s, h, r: ChordNetwork(s, h).build(),
    "crescendo": lambda s, h, r: CrescendoNetwork(s, h).build(),
    "symphony": lambda s, h, r: SymphonyNetwork(s, h, r).build(),
    "cacophony": lambda s, h, r: CacophonyNetwork(s, h, r).build(),
    "ndchord": lambda s, h, r: NDChordNetwork(s, h, r).build(),
    "ndcrescendo": lambda s, h, r: NDCrescendoNetwork(s, h, r).build(),
    "kademlia": lambda s, h, r: KademliaNetwork(s, h, r).build(),
    "kandy": lambda s, h, r: KandyNetwork(s, h, r).build(),
    "can": lambda s, h, r: build_can(s, SIZE, r),
    "cancan": lambda s, h, r: build_cancan(s, SIZE, r, _cancan_paths(r)),
}


def build_family(name, seed):
    rng = random.Random(f"perf-kernels:{name}:{seed}")
    space = IdSpace(BITS)
    hierarchy = _hierarchy(space, rng)
    return FAMILIES[name](space, hierarchy, rng), rng


def workload(network, rng, count=120):
    """Node-to-node pairs plus lookups of arbitrary (non-node) keys."""
    ids = network.node_ids
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(count)]
    pairs += [
        (rng.choice(ids), rng.randrange(network.space.size))
        for _ in range(count // 2)
    ]
    pairs.append((ids[0], ids[0]))  # src == dest
    return pairs


def scalar_router(network):
    return route_ring if network.metric == "ring" else route_xor


def assert_identical(network, pairs, alive=None, metric=None):
    """Batch vs scalar routes; ``metric`` routes by a metric other than the
    network's declared one."""
    if metric is None:
        router = scalar_router(network)
        result = batch_route(network, pairs, alive=alive, paths=True)
    else:
        router = route_ring if metric == "ring" else route_xor
        compiled = compile_network(network)
        batch = compiled.route_ring if metric == "ring" else compiled.route_xor
        srcs, dests = zip(*pairs)
        result = batch(srcs, dests, alive=alive, paths=True)
    for i, (src, dst) in enumerate(pairs):
        expected = router(network, src, dst, alive=alive)
        assert result.paths[i] == expected.path, (i, src, dst)
        assert bool(result.success[i]) == expected.success, (i, src, dst)
        assert int(result.hops[i]) == expected.hops
        assert int(result.terminals[i]) == expected.terminal


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
class TestPathIdentity:
    def test_all_routes_identical(self, family, seed):
        network, rng = build_family(family, seed)
        assert_identical(network, workload(network, rng))

    def test_identical_under_alive_filter(self, family, seed):
        network, rng = build_family(family, seed)
        pairs = workload(network, rng, count=80)
        survivors = LiveSet(rng.sample(network.node_ids, (3 * SIZE) // 4))
        assert_identical(network, pairs, alive=survivors)

    def test_identical_under_plain_set_filter(self, family, seed):
        network, rng = build_family(family, seed)
        pairs = workload(network, rng, count=40)
        survivors = set(rng.sample(network.node_ids, SIZE // 2))
        assert_identical(network, pairs, alive=survivors)


class TestAliveEdgeCases:
    def test_empty_alive_set_never_delivers(self):
        network, rng = build_family("crescendo", 0)
        pairs = workload(network, rng, count=20)
        assert_identical(network, pairs, alive=LiveSet())

    def test_sparse_alive_set(self):
        network, rng = build_family("chord", 0)
        pairs = workload(network, rng, count=40)
        assert_identical(
            network, pairs, alive=LiveSet(rng.sample(network.node_ids, 5))
        )


class TestCompiledLayout:
    def test_csr_arrays_mirror_link_table(self):
        network, _ = build_family("crescendo", 0)
        compiled = compile_network(network)
        assert compiled.ids.tolist() == network.node_ids
        for i, node in enumerate(network.node_ids):
            start, end = compiled.indptr[i], compiled.indptr[i + 1]
            assert compiled.neighbors[start:end].tolist() == network.links[node]
        # The XOR table: each row is its CSR row, then padding (the largest
        # id, pointing back at the row), at least one slot of it.
        ids2d, posflat = compiled._xor_table()
        counts = np.diff(compiled.indptr)
        assert ids2d.shape == (compiled.n, int(counts.max()) + 1)
        pos2d = posflat.reshape(ids2d.shape)
        for i, count in enumerate(counts.tolist()):
            start, end = compiled.indptr[i], compiled.indptr[i + 1]
            assert ids2d[i, :count].tolist() == compiled.neighbors[start:end].tolist()
            assert pos2d[i, :count].tolist() == compiled.nbr_pos[start:end].tolist()
            assert np.all(ids2d[i, count:] == int(compiled.mask))
            assert np.all(pos2d[i, count:] == i)

    def test_compile_is_memoized_per_network(self):
        network, _ = build_family("chord", 0)
        assert compile_network(network) is compile_network(network)
        fresh = compile_network(network, cached=False)
        assert fresh is not compile_network(network)

    def test_unknown_source_rejected(self):
        network, _ = build_family("chord", 0)
        compiled = compile_network(network)
        missing = next(
            i for i in range(network.space.size) if i not in network._id_set
        )
        with pytest.raises(KeyError):
            compiled.route_ring([missing], [network.node_ids[0]])

    def test_too_wide_id_space_rejected(self):
        rng = random.Random(0)
        space = IdSpace(60)
        ids = space.random_ids(64, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        net = ChordNetwork(space, h).build()
        with pytest.raises(ValueError):
            compile_network(net)

    def test_mismatched_batch_lengths_rejected(self):
        network, _ = build_family("chord", 0)
        compiled = compile_network(network)
        with pytest.raises(ValueError):
            compiled.route_ring(network.node_ids[:3], network.node_ids[:2])

    def test_small_network_uses_int32_indexes(self):
        network, _ = build_family("crescendo", 0)
        compiled = compile_network(network)
        assert compiled.indptr.dtype == np.int32
        assert compiled.nbr_pos.dtype == np.int32

    def test_ring_networks_never_build_xor_tables(self):
        network, rng = build_family("crescendo", 1)
        stats = sample_routing(network, rng, samples=30)
        assert stats.success_rate == 1.0
        # Lazy: ring routing through the kernels built no XOR search table.
        assert compile_network(network)._xor_tables is None


class TestBatchResult:
    def test_routes_requires_paths(self):
        network, rng = build_family("crescendo", 0)
        result = batch_route(network, workload(network, rng, count=10))
        with pytest.raises(ValueError):
            next(result.routes())

    def test_delivered_counts_key_hits(self):
        network, rng = build_family("crescendo", 0)
        pairs = [tuple(rng.sample(network.node_ids, 2)) for _ in range(50)]
        result = batch_route(network, pairs)
        assert result.delivered == 50  # node-id lookups always deliver
        assert result.size == 50

    def test_empty_batch(self):
        network, _ = build_family("chord", 0)
        result = batch_route(network, [])
        assert result.size == 0 and result.delivered == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), data=st.data())
def test_property_random_pairs_identical(seed, data):
    """Hypothesis sweep: random Crescendo workloads are path-identical."""
    network, rng = build_family("crescendo", seed % 3)
    n = network.space.size
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(network.node_ids), st.integers(0, n - 1)),
            min_size=1,
            max_size=25,
        )
    )
    assert_identical(network, pairs)


# ------------------------------------ the step vs the scalar engines' scan

RING_BITS = 10


def _random_view(rng, metric="ring"):
    """A random CSR (any links, self-links and empty rows included) and a
    latency table over it — nothing a DHT builder would guarantee."""
    n = int(rng.integers(2, 48))
    ids = np.sort(rng.choice(1 << RING_BITS, size=n, replace=False)).astype(np.uint64)
    rows = [
        np.sort(rng.choice(ids, size=int(rng.integers(0, min(n, 9))), replace=False))
        for _ in range(n)
    ]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    neighbors = np.concatenate(rows).astype(np.uint64)
    compiled = CompiledNetwork.from_arrays(
        metric=metric,
        bits=RING_BITS,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=np.searchsorted(ids, neighbors).astype(np.int64),
    )
    routers = rng.integers(0, 6, size=n)
    matrix = rng.random((6, 6)).astype(np.float32) * 40
    return compiled, LatencyTable(ids, routers, matrix, host_ms=1.5)


def _random_live(compiled, rng, share):
    """A live subset in which some linked node has lost every neighbor."""
    alive = compiled.ids[rng.random(compiled.n) < share]
    linked = np.flatnonzero(np.diff(compiled.indptr) > 0)
    if linked.size:
        i = int(rng.choice(linked))
        dead = compiled.neighbors[compiled.indptr[i] : compiled.indptr[i + 1]]
        alive = alive[~np.isin(alive, dead)]
    return alive


def _random_lookups(compiled, alive, rng, count=40):
    """Lookups parked on live and dead nodes alike, keys on and off nodes."""
    cur = rng.choice(compiled.ids, size=count)
    dead = compiled.ids[~np.isin(compiled.ids, alive)]
    if dead.size:
        cur[0] = dead[0]
    rows = np.split(compiled.neighbors, compiled.indptr[1:-1])
    cut_off = [i for i, row in enumerate(rows) if row.size and not np.isin(row, alive).any()]
    if cut_off:
        cur[1] = compiled.ids[cut_off[0]]
    dest = rng.integers(0, 1 << RING_BITS, size=count).astype(np.uint64)
    dest[::5] = rng.choice(compiled.ids, size=dest[::5].size)
    return cur, dest


def _scalar_step(net, metric, cur_ids, dest, alive, latency):
    """One hop per lookup by the scalar engines' own pieces: the best step
    (a scan under a filter) and the check a stopped route is judged by.
    ``alive=None`` is the unfiltered step."""
    live = None if alive is None else LiveSet(alive.tolist())
    # Unfiltered, the scalar ring check asks a built network for the
    # responsible node; every node alive is the same question.
    judges = LiveSet(net.node_ids) if live is None else live
    next_ids = cur_ids.copy()
    moved = np.zeros(cur_ids.shape, dtype=bool)
    success = np.zeros(cur_ids.shape, dtype=bool)
    hop_ms = np.zeros(cur_ids.shape, dtype=np.float64)
    for i, (cur, key) in enumerate(zip(cur_ids.tolist(), dest.tolist())):
        if metric == "ring":
            nxt = _best_ring_step(net, cur, key, live)
        else:
            nxt = None if cur == key else _best_xor_step(net, cur, key, cur ^ key, live)
        if nxt is not None:
            next_ids[i], moved[i] = nxt, True
            hop_ms[i] = latency.node_latency(cur, nxt)
        elif metric == "ring":
            success[i] = cur == key or _is_responsible(net, cur, key, judges)
        else:
            success[i] = cur == key or _is_xor_closest(net, cur, key, live)
    return next_ids, moved, success, hop_ms


def _assert_scalar_routes(compiled, router, sources, keys, alive, latency, got):
    """``got`` = (paths, success, latency_ms) equals the scalar ``router``
    over the same view, route by route, latency as its left fold."""
    net, live = scalar_view(compiled), LiveSet(alive.tolist())
    paths, success, latency_ms = got
    for i, (src, key) in enumerate(zip(sources.tolist(), keys.tolist())):
        want = router(net, src, key, alive=live)
        assert paths[i] == want.path, (i, src, key)
        assert bool(success[i]) == want.success, (i, src, key)
        assert float(latency_ms[i]) == want.latency(latency.node_latency)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    metric=st.sampled_from(["ring", "xor"]),
    shares=st.lists(
        st.sampled_from([0.0, 0.2, 0.6, 0.9, 1.0, None]), min_size=2, max_size=4
    ),
)
def test_property_live_table_step_matches_scan(seed, metric, shares):
    """``frontier_step`` — positions in, positions out — is the scalar
    engine's scan, hop by hop, across view swaps (a new live array between
    steps; ``None`` is the unfiltered step).  Both metrics: the ring's
    per-view table and gaps, XOR's bracketing pair and ``_xor_step_alive``.
    Node ids are read back through ``ids`` only to face the oracle."""
    rng = np.random.default_rng(seed)
    compiled, latency = _random_view(rng, metric)
    net = scalar_view(compiled)
    lat_state = compiled._latency_state(latency)
    cur, dest = _random_lookups(compiled, _random_live(compiled, rng, 0.6), rng)
    pos = compiled._positions(cur)
    for share in shares:
        # the view swap
        alive = None if share is None else _random_live(compiled, rng, share)
        for _ in range(3):
            want = _scalar_step(net, metric, compiled.ids[pos], dest, alive, latency)
            next_pos, *verdict = compiled.frontier_step(pos, dest, alive, lat_state)
            assert next_pos.dtype == np.int64
            got = (compiled.ids[next_pos], *verdict)
            for name, a, b in zip(("next_ids", "moved", "success", "hop_ms"), got, want):
                assert np.array_equal(a, b), (name, share)
            pos = next_pos
    if metric == "ring" and alive is not None:
        assert compiled._live_table[0] is alive  # one table, the last view's


def test_unfiltered_xor_step_at_the_padding_edges():
    """Ids 0 and 2**bits - 1 beside the padding value: a node listing the
    largest id, one with a single neighbor, one with none and two with a
    self-link step and route as the scalar engine does, for every key.
    Node 4 moves only by the successor's wrap (key 8 to 3) and node 9
    only by the predecessor's (key 7 to 15)."""
    bits = 4
    top = (1 << bits) - 1
    rows = {0: [3, top], 3: [9], 4: [3, 4], 8: [], 9: [8, top], top: [0, top]}
    ids = np.array(sorted(rows), dtype=np.uint64)
    neighbors = np.array([n for node in sorted(rows) for n in rows[node]], dtype=np.uint64)
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum([len(rows[node]) for node in sorted(rows)], out=indptr[1:])
    compiled = CompiledNetwork.from_arrays(
        metric="xor",
        bits=bits,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=np.searchsorted(ids, neighbors).astype(np.int64),
    )
    latency = LatencyTable(ids, np.arange(ids.size) % 3, np.full((3, 3), 5, np.float32))
    lat_state = compiled._latency_state(latency)
    net = scalar_view(compiled)
    # Every key of the space: 0, the largest id and every node id among them.
    keys = np.arange(1 << bits, dtype=np.uint64)
    sources = np.repeat(ids, keys.size)
    dest = np.tile(keys, ids.size)
    pos = compiled._positions(sources)
    for _ in range(ids.size + 1):
        want = _scalar_step(net, "xor", compiled.ids[pos], dest, None, latency)
        next_pos, *verdict = compiled.frontier_step(pos, dest, None, lat_state)
        got = (compiled.ids[next_pos], *verdict)
        for name, a, b in zip(("next_ids", "moved", "success", "hop_ms"), got, want):
            assert np.array_equal(a, b), name
        pos = next_pos
    assert not np.any(verdict[0])  # every route has stopped
    got = compiled.route_xor(sources, dest, paths=True)
    for i, (src, key) in enumerate(zip(sources.tolist(), dest.tolist())):
        want = route_xor(net, src, key)
        assert got.paths[i] == want.path, (src, key)
        assert bool(got.success[i]) == want.success, (src, key)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), share=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_property_stepping_to_quiescence_equals_route(seed, share):
    """``step_frontier`` until nothing moves is the scalar
    ``route_ring(alive=...)`` hop for hop, with bit-equal latency."""
    rng = np.random.default_rng(seed)
    compiled, latency = _random_view(rng)
    alive = _random_live(compiled, rng, share)
    sources, keys = _random_lookups(compiled, alive, rng)
    state = compiled.begin_frontier(sources, keys)
    paths = [[int(s)] for s in sources]
    assert np.array_equal(compiled.ids[state.pos], sources)
    while True:
        before = state.pos.copy()
        if compiled.step_frontier(state, alive, latency=latency) == 0:
            break
        for i in np.flatnonzero(state.pos != before):
            paths[i].append(int(compiled.ids[state.pos[i]]))
    assert np.all(state.done)
    assert [len(path) - 1 for path in paths] == state.hops.tolist()
    _assert_scalar_routes(
        compiled, route_ring, sources, keys, alive, latency,
        (paths, state.success, state.latency_ms),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), share=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_property_filtered_xor_route_equals_scalar(seed, share):
    """``route_xor(alive=...)`` — the step, looped — is the scalar
    ``route_xor(alive=...)`` on views with self-links and empty rows."""
    rng = np.random.default_rng(seed)
    compiled, latency = _random_view(rng, metric="xor")
    alive = _random_live(compiled, rng, share)
    sources, keys = _random_lookups(compiled, alive, rng)
    got = compiled.route_xor(
        sources, keys, alive=set(alive.tolist()), paths=True, latency=latency
    )
    assert got.hops.tolist() == [len(path) - 1 for path in got.paths]
    assert got.terminals.tolist() == [path[-1] for path in got.paths]
    _assert_scalar_routes(
        compiled, route_xor, sources, keys, alive, latency,
        (got.paths, got.success, got.latency_ms),
    )


def test_other_metric_router_identical():
    """Either router runs on any network, filtered or not, by the metric it
    names: the storage walk's pointer fetches route by ring on XOR nets."""
    for family in ("chord", "kademlia", "kandy", "can"):
        network, rng = build_family(family, 0)
        other = "xor" if network.metric == "ring" else "ring"
        pairs = workload(network, rng, count=40)
        assert_identical(network, pairs, metric=other)
        survivors = LiveSet(rng.sample(network.node_ids, (3 * SIZE) // 4))
        assert_identical(network, pairs, alive=survivors, metric=other)
