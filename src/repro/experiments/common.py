"""Shared scaffolding for the per-figure experiment modules.

Each experiment runs at one of three scales:

- ``smoke``: seconds; used by the tests, which assert the *shape* of
  every curve at this scale.
- ``small``: tens of seconds; the CLI default.
- ``paper``: the paper's full parameter grid (up to 65536 nodes); minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.hierarchy import Hierarchy, build_uniform_hierarchy
from ..core.idspace import IdSpace
from ..obs.profile import PROFILER
from ..dhts.chord import ChordNetwork
from ..dhts.crescendo import CrescendoNetwork
from ..proximity.groups import ProximityChordNetwork, ProximityCrescendoNetwork
from ..topology.transit_stub import TopologyParams, TransitStubTopology

MASTER_SEED = 0xC4404  # "Canon" in leet-ish hex; change to re-randomise all runs

#: Paper constants (Section 5.1): fan-out 10 hierarchies, Zipf(1.25) leaves.
FANOUT = 10
ZIPF_EXPONENT = 1.25

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
    from ..verify.invariants import maybe_verify

    for net in networks:
        maybe_verify(net)


def build_crescendo(
    size: int,
    levels: int,
    rng: random.Random,
    space: Optional[IdSpace] = None,
) -> CrescendoNetwork:
    """A Crescendo on the paper's synthetic hierarchy (levels=1 == Chord).

    Build time accrues to the ``build`` phase of
    :data:`repro.obs.profile.PROFILER` (reported by the CLI ``--profile``
    flag).
    """
    space = space or IdSpace()
    with PROFILER.phase("build"):
        ids = space.random_ids(size, rng)
        hierarchy = build_uniform_hierarchy(
            ids, FANOUT, levels, rng, distribution="zipf", zipf_exponent=ZIPF_EXPONENT
        )
        net = CrescendoNetwork(space, hierarchy).build()
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
    group_target: int = 8,
) -> TopologySetup:
    """Attach ``size`` nodes to a fresh transit-stub graph; build all four systems.

    Build time accrues to the ``build`` phase of
    :data:`repro.obs.profile.PROFILER`.
    """
    with PROFILER.phase("build"):
        rng = seeded_rng("topo", seed_token, size)
        topology = TransitStubTopology(TopologyParams(), rng=rng)
        space = IdSpace()
        node_ids = space.random_ids(size, rng)
        hierarchy = topology.attach_nodes(node_ids, rng)
        latency = topology.node_latency
        direct = topology.average_direct_latency(min(4000, size * 4), rng)
        chord = ChordNetwork(space, hierarchy).build()
        crescendo = CrescendoNetwork(space, hierarchy).build()
        chord_prox = ProximityChordNetwork(
            space, hierarchy, latency, rng, group_target=group_target
        ).build()
        crescendo_prox = ProximityCrescendoNetwork(
            space, hierarchy, latency, rng, group_target=group_target
        ).build()
    _maybe_verify(chord, crescendo, chord_prox, crescendo_prox)
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
