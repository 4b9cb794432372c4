"""Mutation smoke: corrupt one table entry, assert the checkers notice.

A verification subsystem that never fires is indistinguishable from one
that works; this module injects a known single-link corruption into a
built network — chosen per family so at least one registered invariant is
guaranteed to cover it — and checks the registry reports it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..core.idspace import successor_index
from ..core.network import DHTNetwork
from .builders import FAMILIES, small_network
from .invariants import run_checks

#: Corruption flavours: ``drop`` removes a structurally required link,
#: ``self`` inserts a self-link, ``unknown`` retargets a link to an id
#: outside the network.  ``self``/``unknown`` exercise ``links-valid``;
#: ``drop`` exercises the per-family structural checkers.
KINDS = ("drop", "self", "unknown")


def _invalidate_compiled(network: DHTNetwork) -> None:
    network.__dict__.pop("_perf_compiled", None)


def _drop_link(network: DHTNetwork, rng: random.Random) -> str:
    """Remove one link a per-family invariant is guaranteed to require.

    Ring families lose a ring-successor link (flat or global-level); XOR
    and hypercube families lose an arbitrary link, which with single-slot
    buckets / one-edge-per-bit construction always uncovers its bucket or
    bit (flat CAN's all-pairs adjacency makes any removal detectable too).
    """
    family = getattr(network, "family", "network")
    ids = network.node_ids
    space = network.space
    if network.metric == "ring":
        # Pick a node whose global ring successor is present, drop that link.
        candidates = list(ids)
        rng.shuffle(candidates)
        for node in candidates:
            pos = ids.index(node)
            succ = ids[(pos + 1) % len(ids)]
            if succ != node and succ in network.links[node]:
                network.links[node].remove(succ)
                _invalidate_compiled(network)
                return f"dropped {family} node {node}'s ring-successor link {succ}"
        raise RuntimeError(f"no droppable successor link found in {family}")
    candidates = [n for n in ids if network.links[n]]
    node = rng.choice(candidates)
    link = rng.choice(network.links[node])
    network.links[node].remove(link)
    _invalidate_compiled(network)
    return f"dropped {family} node {node}'s link {link}"


def _self_link(network: DHTNetwork, rng: random.Random) -> str:
    node = rng.choice(network.node_ids)
    links = network.links[node]
    links.insert(successor_index(links, node) if links else 0, node)
    network.links[node] = sorted(links)
    _invalidate_compiled(network)
    return f"inserted self-link at node {node}"


def _unknown_target(network: DHTNetwork, rng: random.Random) -> str:
    candidates = [n for n in network.node_ids if network.links[n]]
    node = rng.choice(candidates)
    bogus = network.space.size  # one past the id space: never a member
    network.links[node] = sorted(network.links[node][1:] + [bogus])
    _invalidate_compiled(network)
    return f"retargeted one of node {node}'s links to unknown id {bogus}"


def corrupt(
    network: DHTNetwork, rng: random.Random, kind: str = "drop"
) -> str:
    """Apply one seeded corruption; returns a description of what broke."""
    if kind == "drop":
        return _drop_link(network, rng)
    if kind == "self":
        return _self_link(network, rng)
    if kind == "unknown":
        return _unknown_target(network, rng)
    raise ValueError(f"unknown corruption kind {kind!r}; pick one of {KINDS}")


def mutation_smoke(
    families: Sequence[str] = FAMILIES,
    seed: int = 0,
    kinds: Sequence[str] = KINDS,
    size: int = 120,
) -> Dict[str, Dict[str, List[str]]]:
    """Corrupt each family every way; map family -> kind -> detecting checks.

    Raises :class:`AssertionError` if any corruption goes undetected — the
    smoke that keeps the checker registry honest.
    """
    report: Dict[str, Dict[str, List[str]]] = {}
    for family in families:
        report[family] = {}
        for kind in kinds:
            net = small_network(family, seed=seed, size=size)
            rng = random.Random(f"mutate:{family}:{kind}:{seed}")
            description = corrupt(net, rng, kind)
            caught = sorted({v.check for v in run_checks(net)})
            if not caught:
                raise AssertionError(
                    f"undetected corruption ({description}): no registered "
                    f"checker for family {family!r} fired"
                )
            report[family][kind] = caught
    return report
