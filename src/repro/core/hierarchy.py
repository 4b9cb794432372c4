"""The conceptual hierarchy of domains (paper, Section 2.1).

Canon requires all nodes to form a *conceptual hierarchy* reflecting their
real-world organisation (Figure 1 of the paper: Stanford > CS > {DB, DS, AI}).
Internal vertices of the hierarchy are *domains*; system nodes hang off leaf
domains.  No global knowledge of the hierarchy is needed by the protocols —
each node only knows its own position (its hierarchical name) and two nodes
can compute their lowest common ancestor from their names.

A domain is identified by its *path*, a tuple of labels from the root, e.g.
``("stanford", "cs", "db")``.  The root domain is the empty tuple.  Node
*placement* maps each node id to the path of its leaf domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

DomainPath = Tuple[str, ...]

ROOT: DomainPath = ()


def parse_name(name: str, sep: str = ".") -> DomainPath:
    """Parse a DNS-style hierarchical name into a domain path.

    ``"stanford.cs.db"`` -> ``("stanford", "cs", "db")``.  An empty string is
    the root domain.
    """
    if not name:
        return ROOT
    return tuple(name.split(sep))


def format_name(path: DomainPath, sep: str = ".") -> str:
    """Inverse of :func:`parse_name`."""
    return sep.join(path)


def lca(a: DomainPath, b: DomainPath) -> DomainPath:
    """Lowest common ancestor of two domain paths."""
    out: List[str] = []
    for la, lb in zip(a, b):
        if la != lb:
            break
        out.append(la)
    return tuple(out)


def lca_depth(a: DomainPath, b: DomainPath) -> int:
    """Depth (path length) of the lowest common ancestor."""
    depth = 0
    for la, lb in zip(a, b):
        if la != lb:
            break
        depth += 1
    return depth


def is_ancestor(ancestor: DomainPath, path: DomainPath) -> bool:
    """Whether ``ancestor`` is ``path`` or one of its ancestors."""
    return path[: len(ancestor)] == ancestor


@dataclass
class Domain:
    """A vertex in the domain tree."""

    path: DomainPath
    children: Dict[str, "Domain"] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.path[-1] if self.path else ""

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def child(self, label: str) -> "Domain":
        """The child domain with the given label (KeyError if absent)."""
        return self.children[label]


class Hierarchy:
    """A mutable domain tree plus node placements.

    The hierarchy may evolve dynamically (new domains appear when the first
    node with a new name joins).  Queries used by the DHT constructions:

    - :meth:`members` / :meth:`sorted_members`: all node ids in a domain's
      subtree (the paper's "nodes in domain D").
    - :meth:`path_of`: a node's leaf domain path.
    - :meth:`ancestor_chain`: the domains a node belongs to, leaf to root.
    """

    def __init__(self) -> None:
        self.root = Domain(ROOT)
        self._placements: Dict[int, DomainPath] = {}
        self._members: Dict[DomainPath, List[int]] = {ROOT: []}
        self._sorted_cache: Dict[DomainPath, List[int]] = {}

    # ------------------------------------------------------------------ tree

    def add_domain(self, path: DomainPath) -> Domain:
        """Ensure the domain at ``path`` (and its ancestors) exists."""
        node = self.root
        for i, label in enumerate(path):
            if label not in node.children:
                node.children[label] = Domain(path[: i + 1])
                self._members.setdefault(path[: i + 1], [])
            node = node.children[label]
        return node

    def domain(self, path: DomainPath) -> Domain:
        """The :class:`Domain` at ``path`` (``KeyError`` if absent)."""
        node = self.root
        for label in path:
            node = node.children[label]
        return node

    def has_domain(self, path: DomainPath) -> bool:
        """Whether a domain exists at ``path``."""
        try:
            self.domain(path)
            return True
        except KeyError:
            return False

    def domains(self) -> Iterator[Domain]:
        """All domains, pre-order from the root."""
        stack = [self.root]
        while stack:
            dom = stack.pop()
            yield dom
            stack.extend(dom.children.values())

    def leaf_domains(self) -> List[Domain]:
        """All childless domains (where system nodes hang)."""
        return [d for d in self.domains() if d.is_leaf]

    @property
    def max_depth(self) -> int:
        """Maximum leaf depth — the paper's "number of levels" l."""
        return max((d.depth for d in self.domains()), default=0)

    # ------------------------------------------------------------- placement

    def place(self, node_id: int, path: DomainPath) -> None:
        """Place node ``node_id`` in the leaf domain ``path``."""
        if node_id in self._placements:
            raise ValueError(f"node {node_id} already placed")
        self.add_domain(path)
        self._placements[node_id] = path
        for depth in range(len(path) + 1):
            self._members[path[:depth]].append(node_id)
        self._sorted_cache.clear()

    def remove(self, node_id: int) -> None:
        """Remove a node from its placement (domains are retained)."""
        path = self._placements.pop(node_id)
        for depth in range(len(path) + 1):
            self._members[path[:depth]].remove(node_id)
        self._sorted_cache.clear()

    def path_of(self, node_id: int) -> DomainPath:
        """The leaf-domain path of a node."""
        return self._placements[node_id]

    def ancestor_chain(self, node_id: int) -> List[DomainPath]:
        """Domains containing the node, from its leaf domain up to the root."""
        path = self._placements[node_id]
        return [path[:depth] for depth in range(len(path), -1, -1)]

    def members(self, path: DomainPath = ROOT) -> List[int]:
        """Node ids in the subtree rooted at ``path`` (insertion order)."""
        return list(self._members.get(path, []))

    def sorted_members(self, path: DomainPath = ROOT) -> List[int]:
        """Node ids in the subtree at ``path``, sorted ascending (cached)."""
        cached = self._sorted_cache.get(path)
        if cached is None:
            cached = sorted(self._members.get(path, []))
            self._sorted_cache[path] = cached
        return cached

    def member_count(self, path: DomainPath = ROOT) -> int:
        """Number of nodes in the subtree rooted at ``path``."""
        return len(self._members.get(path, []))

    @property
    def node_ids(self) -> List[int]:
        return list(self._placements)

    def __len__(self) -> int:
        return len(self._placements)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._placements

    # --------------------------------------------------------------- queries

    def lca_of_nodes(self, a: int, b: int) -> DomainPath:
        """Lowest common ancestor domain of two nodes."""
        return lca(self._placements[a], self._placements[b])

    def common_domain_depth(self, a: int, b: int) -> int:
        """Depth of the lowest common domain of two nodes."""
        return lca_depth(self._placements[a], self._placements[b])

    def nodes_in_same_domain(self, node_id: int, depth: int) -> List[int]:
        """All nodes sharing ``node_id``'s depth-``depth`` ancestor domain."""
        path = self._placements[node_id]
        return self.members(path[: min(depth, len(path))])


# ------------------------------------------------------------- constructors


def uniform_tree_paths(fanout: int, levels: int) -> List[DomainPath]:
    """Leaf-domain paths of a complete ``fanout``-ary tree of depth ``levels``.

    ``levels=1`` yields ``fanout`` leaf domains under the root; the paper's
    Section 5.1 experiments use ``fanout=10`` and 1-5 levels (levels=1 being
    flat Chord: every node in one of the fanout leaf domains would still be
    hierarchical, so level 1 is modelled as a *single* leaf domain — see
    :func:`build_uniform_hierarchy`).
    """
    if levels < 1 or fanout < 1:
        raise ValueError("fanout and levels must be >= 1")
    paths: List[DomainPath] = [ROOT]
    for _ in range(levels):
        paths = [path + (str(i),) for path in paths for i in range(fanout)]
    return paths


def zipf_weights(count: int, exponent: float = 1.25) -> List[float]:
    """Normalised Zipf weights: the k-th largest branch gets weight 1/k^exponent."""
    raw = [1.0 / (k ** exponent) for k in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _choose_weighted(weights: Sequence[float], rng) -> int:
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def build_uniform_hierarchy(
    node_ids: Iterable[int],
    fanout: int,
    levels: int,
    rng,
    distribution: str = "zipf",
    zipf_exponent: float = 1.25,
) -> Hierarchy:
    """Build the Section 5.1 synthetic hierarchy and place every node.

    ``levels=1`` corresponds to flat Chord (all nodes in the root domain).
    For deeper hierarchies, each internal domain has ``fanout`` children and
    nodes descend independently: uniformly at random per level, or with the
    paper's Zipfian branch sizes (the k-th largest branch holds a fraction
    proportional to ``1/k**zipf_exponent`` of its parent's nodes).
    """
    if distribution not in ("uniform", "zipf"):
        raise ValueError(f"unknown distribution {distribution!r}")
    hierarchy = Hierarchy()
    depth = levels - 1  # levels counts the rings incl. the root ring
    if depth == 0:
        for node_id in node_ids:
            hierarchy.place(node_id, ROOT)
        return hierarchy
    weights = (
        zipf_weights(fanout, zipf_exponent)
        if distribution == "zipf"
        else [1.0 / fanout] * fanout
    )
    for node_id in node_ids:
        path: DomainPath = ROOT
        for _ in range(depth):
            path = path + (str(_choose_weighted(weights, rng)),)
        hierarchy.place(node_id, path)
    return hierarchy


def hierarchy_from_names(named_nodes: Mapping[int, str], sep: str = ".") -> Hierarchy:
    """Build a hierarchy from DNS-style names, e.g. ``{7: "stanford.cs.db"}``."""
    hierarchy = Hierarchy()
    for node_id, name in named_nodes.items():
        hierarchy.place(node_id, parse_name(name, sep))
    return hierarchy
