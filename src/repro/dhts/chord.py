"""Flat Chord (Stoica et al., SIGCOMM 2001) — the paper's primary baseline.

Each node with identifier ``m`` maintains a link to the closest node at least
clockwise distance ``2**k`` away, for each ``0 <= k < N`` (Section 2.1).
Routing is greedy clockwise (:func:`repro.core.routing.route_ring`).

Theorem 1 of the paper: expected node degree is at most ``log2(n-1) + 1``.
Theorem 4: expected routing hops are at most ``0.5*log2(n-1) + 0.5``.
Both are validated empirically in ``tests/test_theorems.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..core.idspace import IdSpace, successor_index
from ..core.network import DHTNetwork, Edges


def ring_finger_targets(node_id: int, space: IdSpace) -> List[int]:
    """Chord finger targets ``(m + 2**k) mod 2**N`` for ``0 <= k < N``."""
    return [space.add(node_id, 1 << k) for k in range(space.bits)]


def finger_links(
    node_id: int, sorted_ids: List[int], space: IdSpace, gap: Optional[int] = None
) -> Set[int]:
    """Distinct Chord links of ``node_id`` over the given sorted ring members.

    For each ``k``, the link target is the cyclic successor of
    ``node_id + 2**k`` among ``sorted_ids``; when that successor is the node
    itself no other node lies at distance >= 2**k, and no link is formed.

    With ``gap`` (the Canon merge, Section 2.1), only fingers at clockwise
    distance below ``gap`` are kept: the links a node may add over a merged
    ring are those closer than its successor in its own ring, condition (b).
    Flat Chord passes no gap, which keeps every finger.
    """
    bound = space.size if gap is None else gap
    links: Set[int] = set()
    for k, target in enumerate(ring_finger_targets(node_id, space)):
        if (1 << k) >= bound:
            break  # no node at distance >= 2**k lies inside the gap
        succ = sorted_ids[successor_index(sorted_ids, target)]
        if succ != node_id and space.ring_distance(node_id, succ) < bound:
            links.add(succ)
    return links


def bulk_finger_links(sorted_ids: np.ndarray, space: IdSpace) -> Edges:
    """Vectorised :func:`finger_links` for every member of a ring at once.

    Returns ``(src, dst)`` positions into ``sorted_ids``, one entry per
    (member, finger) — repeats and self-links included, which
    :func:`repro.core.network.edges_to_csr` drops.
    """
    n = len(sorted_ids)
    ks = np.uint64(1) << np.arange(space.bits, dtype=np.uint64)
    targets = (sorted_ids[:, None].astype(np.uint64) + ks[None, :]) % np.uint64(
        space.size
    )
    idx = np.searchsorted(sorted_ids, targets)
    idx[idx == n] = 0
    return np.repeat(np.arange(n), space.bits), idx.ravel()


class ChordNetwork(DHTNetwork):
    """A flat Chord ring over every node in the hierarchy.

    The hierarchy is ignored for link construction (flat design); it is still
    carried so the analysis layer can measure Chord's (lack of) path locality
    against the same placements used for Crescendo.
    """

    metric = "ring"
    family = "chord"

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        return {
            node: finger_links(node, self.node_ids, self.space)
            for node in self.node_ids
        }

    def _bulk_link_sets(self) -> Edges:
        return bulk_finger_links(self.id_array, self.space)

    def successor_list(self, node_id: int, length: int = 4) -> List[int]:
        """The node's leaf set: its next ``length`` successors on the ring.

        Used for failure repair; per Section 2.3 these are not counted as
        links.
        """
        ids = self.node_ids
        pos = successor_index(ids, self.space.add(node_id, 1))
        return [ids[(pos + i) % len(ids)] for i in range(min(length, len(ids) - 1))]
