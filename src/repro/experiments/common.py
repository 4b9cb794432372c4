"""Shared scaffolding for the per-figure experiment modules.

Each experiment runs at one of three scales:

- ``smoke``: seconds; used by the tests, which assert the *shape* of
  every curve at this scale.
- ``small``: tens of seconds; the CLI default.
- ``paper``: the paper's full parameter grid (up to 65536 nodes); minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.hierarchy import ROOT, Hierarchy, build_uniform_hierarchy
from ..core.idspace import IdSpace
from ..obs.profile import PROFILER
from ..dhts.chord import ChordNetwork
from ..dhts.crescendo import CrescendoNetwork
from ..perf import cache as perf_cache
from ..perf import build as perf_build
from ..proximity.groups import (
    ProximityChordNetwork,
    ProximityCrescendoNetwork,
    route_grouped,
)
from ..topology.transit_stub import TopologyParams, TransitStubTopology

MASTER_SEED = 0xC4404  # "Canon" in leet-ish hex; change to re-randomise all runs

#: Paper constants (Section 5.1): fan-out 10 hierarchies, Zipf(1.25) leaves.
FANOUT = 10
ZIPF_EXPONENT = 1.25

#: Populations at or above this also cache their compiled CSR arrays as an
#: ``.npz`` sidecar, so warm loads skip Python-object reconstruction of the
#: routing structures (small networks compile faster than the file reads).
NPZ_MIN_SIZE = 2048


@dataclass(frozen=True)
class Scale:
    name: str
    fig3_sizes: Tuple[int, ...]
    fig3_levels: Tuple[int, ...]
    fig4_size: int
    fig6_sizes: Tuple[int, ...]
    fig7_size: int
    route_samples: int
    multicast_sources: int


SCALES: Dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        fig3_sizes=(256, 512),
        fig3_levels=(1, 2, 3),
        fig4_size=512,
        fig6_sizes=(512,),
        fig7_size=1024,
        route_samples=120,
        multicast_sources=100,
    ),
    "small": Scale(
        name="small",
        fig3_sizes=(1024, 2048, 4096),
        fig3_levels=(1, 2, 3, 4, 5),
        fig4_size=4096,
        fig6_sizes=(2048, 4096),
        fig7_size=4096,
        route_samples=400,
        multicast_sources=500,
    ),
    "paper": Scale(
        name="paper",
        fig3_sizes=(1024, 2048, 4096, 8192, 16384, 32768, 65536),
        fig3_levels=(1, 2, 3, 4, 5),
        fig4_size=32768,
        fig6_sizes=(2048, 4096, 8192, 16384, 32768, 65536),
        fig7_size=32768,
        route_samples=2000,
        multicast_sources=1000,
    ),
}


def get_scale(name: str) -> Scale:
    """Look up a named scale, with a helpful error for unknown names."""
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; pick one of {sorted(SCALES)}")


def seeded_rng(*tokens: object) -> random.Random:
    """A deterministic RNG derived from the master seed and a token tuple."""
    return random.Random(f"{MASTER_SEED}:{tokens!r}")


def _maybe_verify(*networks) -> None:
    """Run the invariant registry on freshly built networks under --verify.

    Imported lazily so the experiments package stays importable without
    pulling the verification subsystem into every run.
    """
    from ..verify.invariants import auto_verify_enabled, verify_network

    if auto_verify_enabled():
        for net in networks:
            verify_network(net)


def build_crescendo(
    size: int,
    levels: int,
    rng: random.Random,
    space: Optional[IdSpace] = None,
    cache_token: Optional[Tuple] = None,
) -> CrescendoNetwork:
    """A Crescendo on the paper's synthetic hierarchy (levels=1 == Chord).

    When a :mod:`repro.perf.cache` is active and ``cache_token`` is given
    (by convention the same token tuple that seeded ``rng``), the built
    link tables and hierarchy placements are cached on disk.  On a hit the
    construction is skipped and ``rng`` is fast-forwarded to its recorded
    post-build state, so every later draw matches an uncached run exactly.

    Build time accrues to the ``build`` phase of
    :data:`repro.obs.profile.PROFILER` (reported by the CLI ``--profile``
    flag).
    """
    cache = perf_cache.active_cache()
    space = space or IdSpace()
    key = None
    if cache is not None and cache_token is not None:
        # Size and bits fix which builder runs; the version retires tables
        # an older builder produced.
        key = (
            "crescendo", size, levels, cache_token, space.bits, FANOUT,
            ZIPF_EXPONENT, perf_build.BUILDER_VERSION,
        )
        payload = cache.get(key)
        if payload is not None:
            with PROFILER.phase("build"):
                hierarchy = Hierarchy()
                for node, path in payload["placements"]:
                    hierarchy.place(node, tuple(path))
                net = CrescendoNetwork(space, hierarchy)
                perf_cache.install_network(net, payload)
                arrays = cache.get_arrays(key)
                if arrays is not None:
                    # Warm compiled form: adopt the sidecar's CSR arrays so
                    # the first batch route skips Python-object compilation.
                    from ..perf.kernels import CompiledNetwork

                    net.__dict__["_perf_compiled"] = CompiledNetwork.from_arrays(
                        network=net,
                        metric=net.metric,
                        bits=space.bits,
                        **arrays,
                    )
            rng.setstate(payload["rng_state"])
            _maybe_verify(net)
            return net
    with PROFILER.phase("build"):
        ids = space.random_ids(size, rng)
        hierarchy = build_uniform_hierarchy(
            ids, FANOUT, levels, rng, distribution="zipf", zipf_exponent=ZIPF_EXPONENT
        )
        net = CrescendoNetwork(space, hierarchy).build()
    if key is not None:
        payload = perf_cache.network_payload(net, rng_state=rng.getstate())
        # Placements are replayed in insertion order so hierarchy member
        # lists (and everything downstream of them) come back identical.
        payload["placements"] = [
            (node, hierarchy.path_of(node)) for node in hierarchy.members(ROOT)
        ]
        cache.put(key, payload)
        if size >= NPZ_MIN_SIZE:
            from ..perf.kernels import compile_network

            compiled = compile_network(net)
            cache.put_arrays(
                key,
                {
                    "ids": compiled.ids,
                    "indptr": compiled.indptr,
                    "neighbors": compiled.neighbors,
                    "nbr_pos": compiled.nbr_pos,
                },
            )
    _maybe_verify(net)
    return net


@dataclass
class TopologySetup:
    """Everything the topology-based experiments (Figs 6-9) share."""

    topology: TransitStubTopology
    space: IdSpace
    hierarchy: Hierarchy
    node_ids: List[int]
    direct_latency: float
    chord: ChordNetwork
    crescendo: CrescendoNetwork
    chord_prox: ProximityChordNetwork
    crescendo_prox: ProximityCrescendoNetwork

    @property
    def latency(self) -> Callable[[int, int], float]:
        return self.topology.node_latency


def build_topology_setup(
    size: int,
    seed_token: object,
    include_flat: bool = True,
    group_target: int = 8,
) -> TopologySetup:
    """Attach ``size`` nodes to a fresh transit-stub graph; build all four systems.

    The topology, hierarchy and direct-latency estimate are always computed
    (they are cheap and feed the shared RNG stream); with an active
    :mod:`repro.perf.cache` the four *link-table builds* — by far the
    expensive part — are cached as one unit, keyed by the seed token, so
    the RNG draws of the two proximity builds are skipped and replaced by
    the recorded post-build state.

    Build time accrues to the ``build`` phase of
    :data:`repro.obs.profile.PROFILER`.
    """
    cache = perf_cache.active_cache()
    with PROFILER.phase("build"):
        rng = seeded_rng("topo", seed_token, size)
        topology = TransitStubTopology(TopologyParams(), rng=rng)
        space = IdSpace()
        node_ids = space.random_ids(size, rng)
        hierarchy = topology.attach_nodes(node_ids, rng)
        latency = topology.node_latency
        direct = topology.average_direct_latency(min(4000, size * 4), rng)
        # Constructors draw nothing from ``rng`` (only the proximity builds
        # do), so constructing all four up front preserves the RNG stream
        # and lets a cache hit install link tables without building.
        chord = ChordNetwork(space, hierarchy)
        crescendo = CrescendoNetwork(space, hierarchy)
        chord_prox = ProximityChordNetwork(
            space, hierarchy, latency, rng, group_target=group_target
        )
        crescendo_prox = ProximityCrescendoNetwork(
            space, hierarchy, latency, rng, group_target=group_target
        )
        networks = (chord, crescendo, chord_prox, crescendo_prox)
        key = (
            "topo-setup", seed_token, size, include_flat, group_target,
            space.bits, perf_build.BUILDER_VERSION,
        )
        payload = cache.get(key) if cache is not None else None
        if payload is not None and len(payload.get("networks", ())) == len(networks):
            for net, net_payload in zip(networks, payload["networks"]):
                perf_cache.install_network(net, net_payload)
            rng.setstate(payload["rng_state"])
        else:
            for net in networks:
                net.build()
            if cache is not None:
                cache.put(
                    key,
                    {
                        "networks": [perf_cache.network_payload(n) for n in networks],
                        "rng_state": rng.getstate(),
                    },
                )
    _maybe_verify(*networks)
    return TopologySetup(
        topology=topology,
        space=space,
        hierarchy=hierarchy,
        node_ids=node_ids,
        direct_latency=direct,
        chord=chord,
        crescendo=crescendo,
        chord_prox=chord_prox,
        crescendo_prox=crescendo_prox,
    )
