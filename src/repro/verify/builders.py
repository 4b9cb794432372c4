"""One place that knows how to build every DHT family for verification.

The invariant fuzzer and the mutation smoke both need "a built network of
family X over this membership"; this module centralises that dispatch so
adding a family means touching one table (plus registering its checkers in
:mod:`repro.verify.invariants`).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from ..core.hierarchy import Hierarchy, build_uniform_hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork
from ..dhts.cacophony import CacophonyNetwork
from ..dhts.can import build_can
from ..dhts.cancan import build_cancan
from ..dhts.chord import ChordNetwork
from ..dhts.crescendo import CrescendoNetwork
from ..dhts.kademlia import KademliaNetwork
from ..dhts.kandy import KandyNetwork
from ..dhts.mixed import LanCrescendoNetwork
from ..dhts.naive import NaiveHierarchicalChord
from ..dhts.ndchord import NDChordNetwork, NDCrescendoNetwork
from ..dhts.symphony import SymphonyNetwork

#: The paper's ten constructions (five flat families and their Canon
#: versions), the default target set for ``python -m repro.verify fuzz``.
FAMILIES: Tuple[str, ...] = (
    "chord",
    "crescendo",
    "symphony",
    "cacophony",
    "ndchord",
    "ndcrescendo",
    "kademlia",
    "kandy",
    "can",
    "cancan",
)

#: Additional checkable constructions outside the headline ten.
EXTRA_FAMILIES: Tuple[str, ...] = ("naive", "mixed")

#: Families whose nodes are zone prefixes rather than hierarchy members —
#: built from a member *count* plus domain placements, not from ids.
PREFIX_FAMILIES = ("can", "cancan")


def build_family(
    family: str,
    space: IdSpace,
    hierarchy: Optional[Hierarchy] = None,
    rng: Optional[random.Random] = None,
    domain_paths: Optional[Sequence[Tuple[str, ...]]] = None,
) -> DHTNetwork:
    """Build one family over an explicit membership.

    Ring/XOR families build over ``hierarchy``; the prefix families (CAN,
    Can-Can) allocate fresh zone identifiers and only take the membership's
    *size and domain placements* from ``domain_paths``.
    """
    rng = rng if rng is not None else random.Random(0)
    if family in PREFIX_FAMILIES:
        if not domain_paths:
            raise ValueError(f"{family} needs domain_paths (one per node)")
        if family == "can":
            return build_can(space, len(domain_paths), rng)
        return build_cancan(space, len(domain_paths), rng, list(domain_paths))
    if hierarchy is None:
        raise ValueError(f"{family} needs a hierarchy")
    if family == "chord":
        return ChordNetwork(space, hierarchy).build()
    if family == "crescendo":
        return CrescendoNetwork(space, hierarchy).build()
    if family == "symphony":
        return SymphonyNetwork(space, hierarchy, rng).build()
    if family == "cacophony":
        return CacophonyNetwork(space, hierarchy, rng).build()
    if family == "ndchord":
        return NDChordNetwork(space, hierarchy, rng).build()
    if family == "ndcrescendo":
        return NDCrescendoNetwork(space, hierarchy, rng).build()
    if family == "kademlia":
        return KademliaNetwork(space, hierarchy, rng, bucket_size=1).build()
    if family == "kandy":
        return KandyNetwork(space, hierarchy, rng, bucket_size=1).build()
    if family == "naive":
        return NaiveHierarchicalChord(space, hierarchy).build()
    if family == "mixed":
        return LanCrescendoNetwork(space, hierarchy).build()
    raise ValueError(f"unknown family {family!r}; known: {FAMILIES + EXTRA_FAMILIES}")


def small_network(
    family: str,
    seed: int = 0,
    size: int = 120,
    bits: int = 32,
    levels: int = 2,
    fanout: int = 4,
) -> DHTNetwork:
    """A modest standalone instance for smoke tests and the ``check`` CLI."""
    rng = random.Random(f"verify:{family}:{seed}")
    space = IdSpace(bits)
    if family in PREFIX_FAMILIES:
        paths = [(f"d{i % fanout}",) for i in range(size)]
        return build_family(family, space, rng=rng, domain_paths=paths)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, fanout, levels, rng)
    return build_family(family, space, hierarchy=hierarchy, rng=rng)
