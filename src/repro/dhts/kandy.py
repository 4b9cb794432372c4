"""Kandy — the Canonical version of Kademlia (Section 3.3).

Each node creates its links in its lowest-level domain just as dictated by
Kademlia; at successively higher levels it applies the Kademlia policy over
all nodes of that level's domain, discarding candidates already covered more
locally.

**Interpretation note** (see DESIGN.md §4).  The paper's one-line filter —
"throw away any candidate whose distance is larger than the shortest distance
link possessed at the lower level" — is sound for the ring metric, where the
node adjacent to a target always has a large own-ring *gap in the target's
direction*.  The XOR metric is symmetric and has no such directional gap: two
mutually-close nodes (e.g. 0000 and 0001) would both discard every candidate
toward a distant target (e.g. 1000) and greedy XOR routing would strand.  We
therefore apply the threshold *per bucket*: a node takes its bucket-k contact
from the **lowest enclosing domain in which bucket k is non-empty**.  This
preserves the construction's intent — local links preferred, one contact per
globally non-empty bucket, degree ~ log n, intra-domain path locality — and
makes greedy XOR routing provably convergent: if the target lies in bucket k
of the current node, the node's bucket-k contact agrees with the target on
bit k and everything above it, strictly shrinking the XOR distance.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork, Edges
from .kademlia import bucket_members_range, choose_bucket_contact


class KandyNetwork(DHTNetwork):
    """Static construction of Kandy over the conceptual hierarchy."""

    metric = "xor"
    family = "kandy"

    def __init__(
        self,
        space: IdSpace,
        hierarchy: Hierarchy,
        rng=None,
        bucket_size: int = 1,
    ) -> None:
        super().__init__(space, hierarchy)
        self.rng = rng
        self.bucket_size = bucket_size
        self._contact_depth: Optional[Dict[int, Dict[int, int]]] = {}
        # The bulk build's (bits x n) contact-depth matrix, until read.
        self._contact_at: Optional[np.ndarray] = None

    @property
    def contact_depth(self) -> Dict[int, Dict[int, int]]:
        """node -> bucket index -> depth of the domain the contact came from
        (exposed for the locality analysis and tests; a bulk build makes the
        dict on first read)."""
        if self._contact_depth is None:
            from ..perf.build import contact_depths

            self._contact_depth = contact_depths(self.node_ids, self._contact_at)
            self._contact_at = None
        return self._contact_depth

    @contact_depth.setter
    def contact_depth(self, depths: Dict[int, Dict[int, int]]) -> None:
        self._contact_depth = depths
        self._contact_at = None

    def _use_bulk(self) -> bool:
        # Deterministic multi-contact buckets (rng None, bucket_size > 1)
        # have no bulk form, nor has a hierarchy too wide for composite keys.
        from ..perf.build import composite_keys_fit

        return (
            super()._use_bulk()
            and (self.rng is not None or self.bucket_size == 1)
            and composite_keys_fit(self.hierarchy, self.space.bits)
        )

    def _bulk_link_sets(self) -> Edges:
        from ..perf.build import hierarchy_codes, kandy_edges

        edges, self._contact_at = kandy_edges(
            self.node_ids,
            self.space,
            hierarchy_codes(self.hierarchy, self.node_ids),
            self.rng,
            self.bucket_size,
        )
        self._contact_depth = None
        return edges

    def _reference_link_sets(self) -> Dict[int, Set[int]]:
        space = self.space
        link_sets: Dict[int, Set[int]] = {}
        self.contact_depth = {}
        for node in self.node_ids:
            links: Set[int] = set()
            depths: Dict[int, int] = {}
            chain = self.hierarchy.ancestor_chain(node)  # leaf domain first
            for k in range(space.bits):
                for domain_path in chain:
                    members = self.hierarchy.sorted_members(domain_path)
                    i, j = bucket_members_range(node, k, members, space)
                    if i == j:
                        continue
                    contacts = choose_bucket_contact(
                        node, k, members, space, self.rng, self.bucket_size
                    )
                    links.update(contacts)
                    depths[k] = len(domain_path)
                    break  # lowest enclosing domain with a non-empty bucket
            link_sets[node] = links
            self.contact_depth[node] = depths
        return link_sets
