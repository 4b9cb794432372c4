"""Shared-memory arenas: fidelity, dtype minimization, lifecycle, streaming.

Four properties, each load-bearing for the ``--arena`` grid transport:

- **Fidelity** — routing a network through an arena round-trip (export →
  attach → batch kernels over the mapped views) is hop-for-hop identical
  to the in-process kernels across every family, and bit-for-bit on fused
  latency totals (:func:`compare_routing` with ``via_arena=True``).
- **Dtype minimization** — compiled index arrays are int32 whenever the
  population/edge count fits, in-process and through the arena alike.
- **Lifecycle** — segments never outlive their owner: explicit dispose,
  garbage collection, and a worker crashing mid-grid all leave nothing
  attachable behind.
- **Streaming** — :func:`stream_crescendo_csr` emits *identical* CSR
  arrays to compiling an object-built network, and the fig5 arena grid is
  byte-identical (results and ``route.*`` metrics) to the per-worker-build
  transport.
"""

from __future__ import annotations

import gc
import random
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis.metrics import sample_routing_compiled
from repro.core.hierarchy import build_uniform_hierarchy
from repro.core.idspace import IdSpace
from repro.dhts.crescendo import CrescendoNetwork
from repro.experiments import fig5_hops, fig6_stretch
from repro.obs import metrics as obs_metrics
from repro.perf import arena as perf_arena
from repro.perf.arena import (
    Arena,
    attach_network,
    export_latency_matrix,
    export_network,
    top_domain_codes,
)
from repro.perf.build import (
    hierarchy_codes,
    stream_compiled_crescendo,
    stream_crescendo_csr,
    stream_crescendo_ids,
)
from repro.perf.cache import NetworkCache, caching
from repro.perf.executor import map_points
from repro.perf.kernels import CompiledNetwork, compile_network
from repro.perf.latency import LatencyTable
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.verify.builders import FAMILIES, small_network
from repro.verify.oracles import compare_routing


def _pairs(net, rng, count=30):
    ids = net.node_ids
    return [
        (ids[rng.randrange(len(ids))], net.space.random_id(rng))
        for _ in range(count)
    ]


def _latency_setup(size=150, seed=11):
    rng = random.Random(seed)
    topology = TransitStubTopology(TopologyParams(), rng=rng)
    space = IdSpace()
    ids = space.random_ids(size, rng)
    hierarchy = topology.attach_nodes(ids, rng)
    net = CrescendoNetwork(space, hierarchy).build()
    table = LatencyTable.from_topology(topology, sorted(ids))
    return net, table, rng


class TestArenaRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_hop_for_hop_across_families(self, family):
        net = small_network(family, seed=51)
        rng = random.Random(f"arena:{family}")
        assert compare_routing(net, _pairs(net, rng), via_arena=True) == []

    def test_latency_bit_identity(self):
        net, table, rng = _latency_setup()
        pairs = _pairs(net, rng, count=50)
        assert compare_routing(net, pairs, latency=table, via_arena=True) == []

    def test_shared_matrix_arena(self):
        """A matrix exported once serves a network arena by reference."""
        net, table, rng = _latency_setup(seed=12)
        pairs = _pairs(net, rng, count=40)
        compiled = compile_network(net)
        direct = compiled.route(
            [p[0] for p in pairs], [p[1] for p in pairs], latency=table
        )
        matrix_arena = export_latency_matrix(table)
        owner = export_network(compiled, latency=table, matrix_arena=matrix_arena)
        try:
            view = attach_network(owner.manifest)
            assert view.latency is not None
            shared = view.compiled.route(
                [p[0] for p in pairs], [p[1] for p in pairs], latency=view.latency
            )
            np.testing.assert_array_equal(direct.terminals, shared.terminals)
            np.testing.assert_array_equal(direct.latency_ms, shared.latency_ms)
        finally:
            owner.dispose()
            matrix_arena.dispose()

    def test_to_arena_from_arena_arrays_identical(self):
        net = small_network("crescendo", seed=52)
        compiled = compile_network(net)
        owner = compiled.to_arena()
        try:
            back = CompiledNetwork.from_arena(owner.manifest)
            for name in ("ids", "indptr", "neighbors", "nbr_pos"):
                mine, theirs = getattr(compiled, name), getattr(back, name)
                assert mine.dtype == theirs.dtype
                np.testing.assert_array_equal(mine, theirs)
            assert back.metric == compiled.metric and back.bits == compiled.bits
        finally:
            owner.dispose()

    def test_top_domain_codes_match_hierarchy_prefixes(self):
        net = small_network("crescendo", seed=53)
        compiled = compile_network(net)
        codes = top_domain_codes(net.hierarchy, compiled.ids)
        ids = compiled.ids.tolist()
        for i, a in enumerate(ids):
            for j, b in enumerate(ids[: i + 1]):
                same = net.hierarchy.path_of(a)[:1] == net.hierarchy.path_of(b)[:1]
                assert (codes[i] == codes[j]) == same


class TestDtypeMinimization:
    def test_small_network_uses_int32_indexes(self):
        net = small_network("crescendo", seed=54)
        compiled = compile_network(net)
        assert compiled.indptr.dtype == np.int32
        assert compiled.nbr_pos.dtype == np.int32

    def test_arena_preserves_minimized_dtypes(self):
        net = small_network("chord", seed=55)
        compiled = compile_network(net)
        owner = compiled.to_arena()
        try:
            view = attach_network(owner.manifest)
            assert view.compiled.indptr.dtype == np.int32
            assert view.compiled.nbr_pos.dtype == np.int32
        finally:
            owner.dispose()

    def test_ring_networks_never_build_xor_tables(self):
        net = small_network("crescendo", seed=56)
        compiled = compile_network(net)
        rng = random.Random(57)
        stats = sample_routing_compiled(compiled, rng, samples=30)
        assert stats.success_rate == 1.0
        assert compiled._xor_tables is None  # lazy: ring routing built none


class TestLifecycle:
    def test_dispose_unlinks_segment(self):
        arena = Arena.create({"x": np.arange(10, dtype=np.int64)})
        name = arena.manifest.name
        assert perf_arena.live_arena_bytes() >= arena.nbytes
        arena.dispose()
        assert arena.disposed
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_dispose_is_idempotent_and_blocks_arrays(self):
        arena = Arena.create({"x": np.arange(4, dtype=np.int64)})
        arena.dispose()
        arena.dispose()
        with pytest.raises(ValueError):
            arena.arrays()

    def test_gc_finalizer_unlinks(self):
        arena = Arena.create({"x": np.arange(8, dtype=np.float64)})
        name = arena.manifest.name
        del arena
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_live_bytes_returns_to_baseline(self):
        before = perf_arena.live_arena_bytes()
        with Arena.create({"x": np.zeros(1000, dtype=np.int64)}) as arena:
            assert perf_arena.live_arena_bytes() == before + arena.nbytes
        assert perf_arena.live_arena_bytes() == before

    def test_crashing_worker_leaks_nothing(self):
        """A grid whose worker raises must still unlink every segment."""
        nets = [small_network("crescendo", seed=60 + i) for i in range(2)]
        owners = [compile_network(net).to_arena() for net in nets]
        names = [owner.manifest.name for owner in owners]
        manifests = {i: owner.manifest for i, owner in enumerate(owners)}
        try:
            with pytest.raises(RuntimeError):
                map_points(_crash_worker, [0, 1], jobs=2, arenas=manifests)
        finally:
            for owner in owners:
                owner.dispose()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_fig5_grid_leaves_no_segments(self):
        before = perf_arena.live_arena_bytes()
        fig5_hops.measurements("smoke", jobs=2, arena=True)
        assert perf_arena.live_arena_bytes() == before

    def test_arena_metrics_land_in_registry(self):
        with obs_metrics.collecting() as registry:
            with Arena.create({"x": np.zeros(64, dtype=np.int8)}):
                assert registry.gauge("arena.bytes").value > 0
            assert registry.counter("arena.creates").value == 1
            assert registry.gauge("arena.bytes").value == float(
                perf_arena.live_arena_bytes()
            )


class TestFig5Identity:
    def test_arena_grid_matches_object_grid(self):
        plain = fig5_hops.measurements("smoke", jobs=1, arena=False)
        serial = fig5_hops.measurements("smoke", jobs=1, arena=True)
        parallel = fig5_hops.measurements("smoke", jobs=2, arena=True)
        assert serial == plain  # exact float equality, not approx
        assert parallel == plain

    def test_route_metrics_parity(self):
        def route_metrics(arena):
            with obs_metrics.collecting() as registry:
                fig5_hops.measurements("smoke", jobs=2, arena=arena)
                snap = registry.snapshot()
            counters = {
                k: v for k, v in snap.counters.items() if k.startswith("route.")
            }
            counters["messages.lookup"] = snap.counters["messages.lookup"]
            histograms = {
                k: snap.histograms[k] for k in ("route.hops", "route.crossings")
            }
            return counters, histograms

        assert route_metrics(arena=True) == route_metrics(arena=False)


class TestFig6Identity:
    def test_arena_grid_matches_object_grid(self):
        plain = fig6_stretch.measurements("smoke", jobs=1, arena=False)
        serial = fig6_stretch.measurements("smoke", jobs=1, arena=True)
        parallel = fig6_stretch.measurements("smoke", jobs=2, arena=True)
        assert serial == plain  # exact float equality, not approx
        assert parallel == plain

    def test_grid_leaves_no_segments_or_setups(self):
        before = perf_arena.live_arena_bytes()
        fig6_stretch.measurements("smoke", jobs=2, arena=True)
        assert perf_arena.live_arena_bytes() == before
        assert fig6_stretch._SETUPS == {}


class TestStreamingConstruction:
    @pytest.mark.parametrize("size,levels", [(300, 1), (300, 3), (1000, 4)])
    def test_csr_identical_to_object_build(self, size, levels):
        rng = random.Random(f"stream-oracle:{size}:{levels}")
        space = IdSpace(32)
        ids = space.random_ids(size, rng)
        hierarchy = build_uniform_hierarchy(
            ids, 4, levels, rng, distribution="zipf", zipf_exponent=1.25
        )
        compiled = compile_network(CrescendoNetwork(space, hierarchy).build())
        sorted_ids = np.sort(np.asarray(ids, dtype=np.uint64))
        codes = hierarchy_codes(hierarchy, sorted_ids.tolist())
        indptr, neighbors, nbr_pos = stream_crescendo_csr(sorted_ids, codes, space)
        np.testing.assert_array_equal(indptr, compiled.indptr)
        np.testing.assert_array_equal(neighbors, compiled.neighbors)
        np.testing.assert_array_equal(nbr_pos, compiled.nbr_pos)

    def test_stream_ids_distinct_sorted_unbiased(self):
        rng = random.Random(70)
        ids = stream_crescendo_ids(5000, rng)
        assert ids.dtype == np.uint64
        assert ids.size == 5000
        assert np.all(ids[1:] > ids[:-1])
        # No truncation bias: the draw covers the id space's upper half too.
        assert ids.max() > np.uint64(1) << np.uint64(31)

    def test_streamed_population_routes(self):
        rng = random.Random(71)
        compiled, top = stream_compiled_crescendo(4096, 3, rng)
        assert compiled.n == 4096
        assert compiled.indptr.dtype == np.int32
        assert top.shape == (4096,)
        owner = export_network(compiled, top_domain=top, label="stream-test")
        try:
            view = attach_network(owner.manifest)
            stats = sample_routing_compiled(view.compiled, rng, samples=200)
            assert stats.success_rate == 1.0
            assert 0 < stats.mean_hops < 2.0 * np.log2(4096)
        finally:
            owner.dispose()

    def test_streaming_is_seed_deterministic(self):
        a, _ = stream_compiled_crescendo(500, 2, random.Random(72))
        b, _ = stream_compiled_crescendo(500, 2, random.Random(72))
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)


class TestNpzSidecar:
    def test_warm_load_adopts_compiled_arrays(self, tmp_path):
        from repro.experiments.common import build_crescendo, seeded_rng

        with caching(NetworkCache(tmp_path)):
            cold = build_crescendo(
                2048, 2, seeded_rng("npz", 2048, 2), cache_token=("npz", 2048, 2)
            )
            cold_compiled = compile_network(cold)
            warm = build_crescendo(
                2048, 2, seeded_rng("npz", 2048, 2), cache_token=("npz", 2048, 2)
            )
            warm_compiled = warm.__dict__.get("_perf_compiled")
            assert warm_compiled is not None  # adopted, not recompiled
            for name in ("ids", "indptr", "neighbors", "nbr_pos"):
                np.testing.assert_array_equal(
                    getattr(cold_compiled, name), getattr(warm_compiled, name)
                )
                assert (
                    getattr(cold_compiled, name).dtype
                    == getattr(warm_compiled, name).dtype
                )

    def test_corrupt_sidecar_degrades_to_recompile(self, tmp_path):
        from repro.experiments.common import build_crescendo, seeded_rng

        with caching(NetworkCache(tmp_path)) as cache:
            build_crescendo(
                2048, 2, seeded_rng("npz2", 2048, 2), cache_token=("npz2", 2048, 2)
            )
            npz_files = list(tmp_path.glob("*.npz"))
            assert len(npz_files) == 1
            npz_files[0].write_bytes(b"not a zip archive")
            warm = build_crescendo(
                2048, 2, seeded_rng("npz2", 2048, 2), cache_token=("npz2", 2048, 2)
            )
            warm.require_built()  # the pickle payload still loaded
            assert "_perf_compiled" not in warm.__dict__
            assert cache.hits == 1


def _crash_worker(point):
    perf_arena.current_manifest(point)  # the manifest must resolve first
    raise RuntimeError(f"deliberate crash at point {point}")
