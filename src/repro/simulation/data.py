"""Content layered on the dynamic protocol: key handoff and re-replication.

Section 2.3 implies content management during membership change ("m inserts
itself after this predecessor"): when a node joins, it takes over the keys
in its new range from its ring predecessor; when it leaves gracefully it
hands them back; when it crashes, copies held by its ring *predecessors*
(the nodes that inherit its range under the paper's inverted responsibility
rule) keep the data alive, and stabilization re-establishes the replication
degree.

:class:`DataLayer` registers as a listener on a
:class:`~repro.simulation.protocol.SimulatedCrescendo` and maintains, per
stored key: the responsible holder in its storage domain's ring, plus
``replicas - 1`` copies on that ring's predecessors.  Every ownership move
and copy is counted as ``transfer`` / ``replicate`` messages.  Ring
membership is read from the protocol
(:meth:`~repro.simulation.protocol.SimulatedCrescendo.live_members`), so a
node dark behind a partition holds no new copies while it is suspended.
This class is the only copy of the content logic:
:class:`~repro.perf.storage.FastDataLayer` inherits it and redefines only
the repair sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.hierarchy import DomainPath, ROOT, is_ancestor
from ..core.idspace import predecessor_index
from ..obs.metrics import record_counter
from .protocol import SimulatedCrescendo


@dataclass
class DataItem:
    key: object
    key_hash: int
    value: object
    storage_domain: DomainPath


class DataLayer:
    """Replicated key-value content over a dynamically maintained network."""

    def __init__(self, net: SimulatedCrescendo, replicas: int = 2) -> None:
        if replicas < 1:
            raise ValueError("need at least one copy")
        self.net = net
        self.replicas = replicas
        self.items: Dict[int, DataItem] = {}  # key_hash -> item
        #: key_hash -> current holders (responsible node first).
        self.holders: Dict[int, List[int]] = {}
        net.listeners.append(self)

    # -------------------------------------------------------------- placement

    def _desired_holders(
        self, item: DataItem, exclude: Optional[int] = None
    ) -> List[int]:
        """Responsible node plus ring predecessors in the storage domain,
        among its live members other than ``exclude``."""
        members = self.net.live_members(item.storage_domain)
        if exclude is not None:
            members = [m for m in members if m != exclude]
        if not members:
            return []
        start = predecessor_index(members, item.key_hash)
        count = min(self.replicas, len(members))
        return [members[(start - i) % len(members)] for i in range(count)]

    # ------------------------------------------------------------------- API

    def put(
        self,
        origin: int,
        key: object,
        value: object,
        storage_domain: Optional[DomainPath] = None,
    ) -> List[int]:
        """Store a key-value pair; returns its holders (responsible first)."""
        storage_domain = ROOT if storage_domain is None else storage_domain
        origin_path = self.net.hierarchy.path_of(origin)
        if not is_ancestor(storage_domain, origin_path):
            raise ValueError(
                f"storage domain {storage_domain!r} does not contain {origin}"
            )
        key_hash = self.net.space.hash_key(key)
        item = DataItem(key, key_hash, value, storage_domain)
        self.items[key_hash] = item
        holders = self._desired_holders(item)
        self.holders[key_hash] = holders
        # One store message to the responsible node + one per extra replica.
        self.net._count("store", max(1, len(holders)))
        record_counter("storage.puts")
        return holders

    def get(self, origin: int, key: object):
        """Lookup through the live network; replicas mask dead primaries.

        Any holder encountered on the greedy path answers — for a key scoped
        to a domain containing the querier, path convergence guarantees the
        route passes through the domain's responsible node.
        """
        key_hash = self.net.space.hash_key(key)
        route = self.net.lookup(origin, key_hash)
        record_counter("storage.gets")
        item = self.items.get(key_hash)
        if item is None:
            return None, route
        holders = set(self.holders.get(key_hash, []))
        if holders.intersection(route.path):
            return item.value, route
        return None, route

    def value_available(self, key: object) -> bool:
        """Whether at least one live holder still has the value."""
        key_hash = self.net.space.hash_key(key)
        return any(
            holder in self.net.nodes and self.net.nodes[holder].alive
            for holder in self.holders.get(key_hash, [])
        )

    # ------------------------------------------------------------- listeners

    def node_joined(self, node_id: int) -> None:
        """The joiner takes over the keys in its new range (handoff)."""
        self._rebalance()

    def node_leaving(self, node_id: int) -> None:
        """Graceful departure: hand keys to the nodes inheriting the range."""
        self._handoff(node_id)

    def node_crashed(self, node_id: int) -> None:
        """Silent failure: copies on surviving holders keep the data alive;
        re-replication happens at the next stabilization round."""

    def stabilized(self) -> None:
        """Stabilization hook: restore the replication degree everywhere."""
        self._rebalance()

    # -------------------------------------------------------------- internals

    def _rebalance(self) -> None:
        """Move/refresh copies so every key sits on its desired holders.

        A key is only recoverable if at least one current copy survives; a
        key with no live holder is *lost* (tracked, never resurrected).
        """
        for key_hash, item in self.items.items():
            current = [
                h
                for h in self.holders.get(key_hash, [])
                if h in self.net.nodes and self.net.nodes[h].alive
            ]
            if not current:
                self.holders[key_hash] = []
                continue  # lost: all copies crashed before repair
            desired = self._desired_holders(item)
            for target in desired:
                if target not in current:
                    self.net._count("replicate")
            self.holders[key_hash] = desired

    def _handoff(self, node_id: int) -> None:
        """Move every key the leaver holds onto its holder run without the
        leaver: one ``transfer`` per new holder not already in the key's
        holder list (dead or not)."""
        for key_hash, holders in self.holders.items():
            if node_id not in holders:
                continue
            desired = self._desired_holders(self.items[key_hash], exclude=node_id)
            for target in desired:
                if target not in holders:
                    self.net._count("transfer")
            self.holders[key_hash] = desired

    def lost_keys(self) -> List[object]:
        """Keys whose every copy crashed before re-replication."""
        return [
            self.items[kh].key
            for kh, holders in self.holders.items()
            if not holders
        ]
