"""Built-network cache: warm loads must be indistinguishable from cold builds.

A cache hit replaces an expensive ``build()`` with an on-disk payload *and*
fast-forwards the builder RNG, so everything downstream — link tables,
hierarchy placements, later RNG draws, sampled routing statistics — must be
byte-identical between a cold and a warm run.  Corruption, key collisions
and version skew must degrade to misses, never to wrong networks.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.analysis.metrics import sample_routing
from repro.core.routing import route_ring
from repro.experiments import __main__ as cli
from repro.experiments.common import (
    build_crescendo,
    build_topology_setup,
    seeded_rng,
)
from repro.perf import cache as perf_cache
from repro.perf.cache import (
    CACHE_VERSION,
    NetworkCache,
    install_network,
    network_payload,
)
from repro.perf.kernels import compile_network


@pytest.fixture
def cache(tmp_path):
    with perf_cache.caching(NetworkCache(tmp_path / "networks")) as active:
        yield active


def _crescendo_run(size=256, levels=3, token=("cache-test",)):
    """One cold-or-warm build plus post-build RNG draws and routing stats."""
    rng = seeded_rng(*token)
    net = build_crescendo(size, levels, rng, cache_token=token)
    draws = [rng.random() for _ in range(5)]
    stats = sample_routing(net, random.Random(99), samples=60, router=route_ring)
    return net, draws, stats


class TestCrescendoRoundTrip:
    def test_warm_load_matches_cold_build_exactly(self, cache):
        cold_net, cold_draws, cold_stats = _crescendo_run()
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1}

        warm_net, warm_draws, warm_stats = _crescendo_run()
        assert cache.stats()["hits"] == 1
        assert warm_net.node_ids == cold_net.node_ids
        assert warm_net.links == cold_net.links
        assert warm_net.gap == cold_net.gap
        assert warm_net.level_successors == cold_net.level_successors
        assert warm_draws == cold_draws  # RNG fast-forwarded to post-build state
        assert warm_stats == cold_stats

    def test_hierarchy_placements_replayed_identically(self, cache):
        cold, _, _ = _crescendo_run()
        warm, _, _ = _crescendo_run()
        for node in cold.node_ids:
            assert warm.hierarchy.path_of(node) == cold.hierarchy.path_of(node)

    def test_different_token_is_a_miss(self, cache):
        _crescendo_run(token=("cache-test",))
        _crescendo_run(token=("other-token",))
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2

    def test_no_active_cache_builds_from_scratch(self):
        assert perf_cache.active_cache() is None
        net, draws, stats = _crescendo_run()
        net2, draws2, stats2 = _crescendo_run()
        assert net2.links == net.links and draws2 == draws and stats2 == stats

    def test_no_token_bypasses_cache(self, cache):
        rng = seeded_rng("untokened")
        build_crescendo(256, 2, rng)
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}


class TestTopologySetupRoundTrip:
    def test_all_four_networks_round_trip(self, cache):
        cold = build_topology_setup(256, "cache-test")
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1}
        warm = build_topology_setup(256, "cache-test")
        assert cache.stats()["hits"] == 1
        for attr in ("chord", "crescendo", "chord_prox", "crescendo_prox"):
            assert getattr(warm, attr).links == getattr(cold, attr).links, attr
        assert warm.node_ids == cold.node_ids
        assert warm.direct_latency == cold.direct_latency


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_rebuilds(self, cache):
        cold, _, _ = _crescendo_run()
        (entry,) = list(cache.root.glob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        warm, _, _ = _crescendo_run()
        assert warm.links == cold.links
        assert cache.stats()["misses"] == 2  # corrupt file read as a miss

    def test_key_collision_is_a_miss(self, cache):
        # Same file, different stored key string: must not be served.
        key = ("crescendo-ish", 1, 2)
        cache.put(key, {"anything": 1})
        path = cache.path_for(key)
        entry = pickle.loads(path.read_bytes())
        entry["key"] = "v%d:('some', 'other', 'key')" % CACHE_VERSION
        path.write_bytes(pickle.dumps(entry))
        assert cache.get(key) is None

    def test_version_skew_is_a_miss(self, cache):
        key = ("crescendo-ish", 1, 2)
        path = cache.put(key, {"anything": 1})
        entry = pickle.loads(path.read_bytes())
        entry["version"] = CACHE_VERSION + 1
        path.write_bytes(pickle.dumps(entry))
        assert cache.get(key) is None

    def test_install_rejects_mismatched_node_ids(self, cache):
        net, _, _ = _crescendo_run()
        payload = network_payload(net)
        payload["node_ids"] = payload["node_ids"][:-1]
        fresh = build_crescendo(256, 3, seeded_rng("fresh"))
        with pytest.raises(ValueError):
            install_network(fresh, payload)

    def test_clear_removes_every_entry(self, cache):
        cache.put(("a",), {"x": 1})
        cache.put(("b",), {"x": 2})
        assert cache.clear() == 2
        assert cache.get(("a",)) is None
        assert cache.stats()["stores"] == 2

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert perf_cache.default_cache_dir() == tmp_path / "custom"


class TestNpzSidecar:
    def test_warm_load_adopts_compiled_arrays(self, tmp_path):
        with perf_cache.caching(NetworkCache(tmp_path)):
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
        with perf_cache.caching(NetworkCache(tmp_path)) as cache:
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


class TestCLI:
    def test_cache_dir_and_jobs_flags(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        argv = ["fig4", "--scale", "smoke", "--cache-dir", str(cache_dir), "--jobs", "2"]
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        assert list(cache_dir.glob("*.pkl"))  # networks were stored
        assert cli.main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold  # warm (cache-hit) output identical to cold
        assert perf_cache.active_cache() is None  # CLI deactivates on exit

    def test_no_cache_flag_disables_caching(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        argv = [
            "fig4", "--scale", "smoke", "--cache-dir", str(cache_dir), "--no-cache"
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_negative_jobs_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig4", "--scale", "smoke", "--jobs", "-1"])
        capsys.readouterr()
