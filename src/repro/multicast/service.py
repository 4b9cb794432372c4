"""Application-level multicast over a DHT (the paper's motivating use case).

Overlay multicast is the first application the paper's introduction cites
for hierarchical design, and Figure 9 measures its key cost: inter-domain
links in the dissemination tree.  This module provides the actual service:

- a *topic* is rendezvous-keyed: its root is the node responsible for the
  hash of the topic name;
- ``subscribe`` routes from the subscriber to the root and grafts the
  reverse path into the dissemination tree — Canon's convergence of
  inter-domain paths makes same-domain subscribers share their tree spine
  automatically;
- ``publish`` floods the tree from the root; the delivery report counts
  messages, per-level domain crossings, and latency to each subscriber.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from ..core.network import DHTNetwork
from ..core.routing import Route, route_ring

Router = Callable[[DHTNetwork, int, int], Route]
LatencyFn = Callable[[int, int], float]


@dataclass
class Topic:
    name: str
    key: int
    root: int
    subscribers: Set[int] = field(default_factory=set)
    #: node -> set of children edges in the dissemination tree (pointing
    #: away from the root, i.e. along reversed query paths).
    children: Dict[int, Set[int]] = field(default_factory=dict)

    def edge_count(self) -> int:
        """Number of edges currently in the dissemination tree."""
        return sum(len(kids) for kids in self.children.values())


@dataclass
class DeliveryReport:
    topic: str
    messages: int
    delivered: Set[int]
    max_depth: int
    interdomain_links: Dict[int, int]
    latencies: Dict[int, float]

    def delivered_all(self, expected: Set[int]) -> bool:
        """Whether every expected subscriber received the publication."""
        return expected <= self.delivered


class MulticastService:
    """Rendezvous-rooted multicast trees over any ring-metric network."""

    def __init__(
        self,
        network: DHTNetwork,
        router: Router = route_ring,
        latency_fn: Optional[LatencyFn] = None,
    ) -> None:
        network.require_built()
        self.network = network
        self.router = router
        self.latency_fn = latency_fn or (lambda a, b: 1.0)
        self.topics: Dict[str, Topic] = {}

    # ------------------------------------------------------------ membership

    def create_topic(self, name: str) -> Topic:
        """Register a topic; its root is the node responsible for hash(name)."""
        if name in self.topics:
            raise ValueError(f"topic {name!r} already exists")
        key = self.network.space.hash_key(name)
        root = self.network.responsible_node(key)
        topic = Topic(name=name, key=key, root=root)
        self.topics[name] = topic
        return topic

    def subscribe(self, node: int, name: str) -> Route:
        """Join the tree: graft the reverse of the query path to the root."""
        topic = self.topics[name]
        route = self.router(self.network, node, topic.key)
        if not route.success:
            raise RuntimeError(f"subscription routing failed for {node}")
        topic.subscribers.add(node)
        # Reverse each query edge (u -> v) into a tree edge (v -> u).
        for upstream, downstream in zip(route.path[1:], route.path):
            topic.children.setdefault(upstream, set()).add(downstream)
        return route

    def unsubscribe(self, node: int, name: str) -> None:
        """Leave the tree; prune branches that serve no subscriber."""
        topic = self.topics[name]
        topic.subscribers.discard(node)
        self._prune(topic)

    def _prune(self, topic: Topic) -> None:
        """Drop leaf branches with no subscriber beneath them."""
        changed = True
        while changed:
            changed = False
            for parent in list(topic.children):
                kids = topic.children[parent]
                for kid in list(kids):
                    if kid in topic.subscribers or topic.children.get(kid):
                        continue
                    kids.discard(kid)
                    changed = True
                if not kids:
                    del topic.children[parent]
                    changed = True

    # ------------------------------------------------------------ publishing

    def publish(self, name: str, depths: Sequence[int] = (1, 2, 3)) -> DeliveryReport:
        """Flood the tree from the root; returns the delivery report."""
        topic = self.topics[name]
        hierarchy = self.network.hierarchy
        messages = 0
        crossings = {depth: 0 for depth in depths}
        latencies: Dict[int, float] = {topic.root: 0.0}
        delivered: Set[int] = set()
        if topic.root in topic.subscribers:
            delivered.add(topic.root)
        queue = deque([(topic.root, 0)])
        max_depth = 0
        seen = {topic.root}
        while queue:
            node, depth = queue.popleft()
            max_depth = max(max_depth, depth)
            for child in topic.children.get(node, ()):
                if child in seen:
                    continue
                seen.add(child)
                messages += 1
                latencies[child] = latencies[node] + self.latency_fn(node, child)
                for level in depths:
                    if (
                        hierarchy.path_of(node)[:level]
                        != hierarchy.path_of(child)[:level]
                    ):
                        crossings[level] += 1
                if child in topic.subscribers:
                    delivered.add(child)
                queue.append((child, depth + 1))
        return DeliveryReport(
            topic=name,
            messages=messages,
            delivered=delivered,
            max_depth=max_depth,
            interdomain_links=crossings,
            latencies={n: latencies[n] for n in delivered},
        )

    # -------------------------------------------------------------- analysis

    def tree_edges(self, name: str) -> Set[Tuple[int, int]]:
        """The dissemination tree's directed (parent, child) edges."""
        topic = self.topics[name]
        return {
            (parent, child)
            for parent, kids in topic.children.items()
            for child in kids
        }
