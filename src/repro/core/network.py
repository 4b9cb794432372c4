"""Static network representation shared by every DHT construction.

A built DHT is represented as an explicit out-link table over node
identifiers.  Node identity *is* the DHT identifier (an integer in the ID
space); the conceptual hierarchy is carried alongside and maps each id to its
leaf domain.

The static ("oracle") constructions in :mod:`repro.dhts` fill these tables
directly; the message-level simulator in :mod:`repro.simulation` builds the
same tables through protocol messages and is cross-checked against the
oracle.

**The CSR contract.**  A built network holds its table as one CSR over
positions into the sorted ``node_ids``: ``indptr`` (row ``p``'s links are
``nbr_pos[indptr[p]:indptr[p + 1]]``) and ``nbr_pos``, each row strictly
ascending, so rows are sorted by id and hold no self-link.  Every
construction installs through :meth:`DHTNetwork._finalize_links`, which
turns ``(src, dst)`` position arrays — or a dict of per-node target sets —
into that CSR with one sort (:func:`edges_to_csr`).
:meth:`DHTNetwork.link_csr` hands it to the batch kernels as it stands, and
the degree queries read its ``indptr``.

**First-read materialisation.**  ``links``, the per-node dict of sorted
id lists that the scalar routers, the invariant checkers and hand edits
use, is built from the CSR on its first read (one ``tolist`` and a slice
per row).  From then on the dict is the source of truth: in-place edits
(``links[n].remove(x)``, ``links[n] = [...]``) and whole-table assignment
(``network.links = ...``) are what :meth:`~DHTNetwork.link_csr` re-derives
its arrays from.
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .hierarchy import Hierarchy, ROOT
from .idspace import IdSpace, predecessor_index, successor_index

#: Node count at or below which :meth:`DHTNetwork.build` runs the scalar
#: reference: setting up arrays costs more than it saves on so few nodes.
BULK_THRESHOLD = 64

#: ``(indptr, nbr_pos)``: a link table over positions into sorted node ids.
LinkCSR = Tuple[np.ndarray, np.ndarray]
#: ``(src, dst)`` position arrays of (repeatable) links.
Edges = Tuple[np.ndarray, np.ndarray]
#: What a construction hands :meth:`DHTNetwork._finalize_links`: edges, or
#: per-node target sets.
LinkSource = Union[Edges, Mapping[int, Set[int]]]


def _index_dtype(n: int, edges: int) -> type:
    """int32 while the population and edge count fit, int64 past that."""
    return np.int32 if n < 2**31 and edges < 2**31 else np.int64


def edges_to_csr(n: int, src: np.ndarray, dst: np.ndarray) -> LinkCSR:
    """The CSR of ``n`` nodes' links from ``(src, dst)`` position arrays.

    Links may repeat and include self-links: one sort of ``src * n + dst``
    orders them by source and then target, the duplicates and the
    self-links (``s * (n + 1)``) drop out, and one ``searchsorted`` cuts
    the rows.  Positions index sorted ids, so each row is sorted by id.
    """
    edge = np.sort(np.asarray(src, dtype=np.int64) * n + dst)
    keep = (np.diff(edge, prepend=-1) != 0) & (edge % (n + 1) != 0)
    edge = edge[keep]
    dt = _index_dtype(n, edge.size)
    rows = np.arange(n + 1, dtype=np.int64) * n
    indptr = np.searchsorted(edge, rows, side="left").astype(dt)
    nbr_pos = (edge % n).astype(dt)
    # Compiled networks share these arrays with the network that holds them.
    indptr.flags.writeable = nbr_pos.flags.writeable = False
    return indptr, nbr_pos


class LinkTableError(AssertionError):
    """A malformed entry in a network's link table.

    Subclasses :class:`AssertionError` for backward compatibility with
    callers that treat :meth:`DHTNetwork.check_links_valid` as an
    assertion, but carries the offending coordinates so harnesses (and
    humans reading CI logs) see *which* entry broke instead of an opaque
    failure.
    """

    def __init__(self, node: int, link: Optional[int], reason: str) -> None:
        self.node = node
        self.link = link
        self.reason = reason
        where = f"node {node}" if link is None else f"node {node} -> {link}"
        super().__init__(f"{where}: {reason}")


class DHTNetwork:
    """Base class: an ID space, a hierarchy, and a per-node link table.

    Subclasses supply their construction rule: ``_reference_link_sets`` is
    the scalar reference, and the families the figure runs build at scale
    also define ``_bulk_link_sets``, the vectorized form of the same rule
    (:mod:`repro.perf.build`); the input alone picks between them
    (:meth:`_use_bulk`).  Either returns a :data:`LinkSource`, and
    :meth:`_finalize_links` installs it as the network's CSR (see the
    module docstring for the CSR contract and when ``links`` exists).
    ``metric`` declares which greedy routing engine applies ("ring" for
    Chord-family networks, "xor" for Kademlia-family).
    """

    metric = "ring"
    #: Short family tag used by :mod:`repro.verify` to select the invariant
    #: checkers that apply to a built instance.  Subclasses override it.
    family = "network"

    def __init__(self, space: IdSpace, hierarchy: Hierarchy) -> None:
        self.space = space
        self.hierarchy = hierarchy
        ids = hierarchy.sorted_members(ROOT)
        self._id_set: Set[int] = set(ids)
        if len(self._id_set) != len(ids):
            raise ValueError("node ids must be unique")
        if ids:  # sorted: the ends bound every id
            space.validate(ids[0])
            space.validate(ids[-1])
        self.node_ids: List[int] = list(ids)
        # Out-links only; the paper's degree figures count these.  Held as
        # a CSR until something reads ``links``.
        none = np.zeros(0, dtype=np.int64)
        self._csr: Optional[LinkCSR] = edges_to_csr(len(ids), none, none)
        self._links: Optional[Dict[int, List[int]]] = None
        self._built = False
        #: Which construction ran: "numpy" (bulk) or "python" (reference).
        self.built_with: Optional[str] = None

    # ------------------------------------------------------------- building

    def build(self) -> "DHTNetwork":
        """Populate the link table.  Returns ``self`` for chaining.

        Takes the bulk construction when :meth:`_use_bulk` holds for this
        input, and :meth:`build_reference` otherwise.
        """
        if not self._use_bulk():
            return self.build_reference()
        self.built_with = "numpy"
        self._finalize_links(self._bulk_link_sets())
        return self

    def build_reference(self) -> "DHTNetwork":
        """Populate the link table through the scalar reference construction.

        The semantic definition every bulk builder is held to
        (:func:`repro.verify.oracles.compare_builders`).
        """
        self.built_with = "python"
        self._finalize_links(self._reference_link_sets())
        return self

    def _use_bulk(self) -> bool:
        """Whether :meth:`build` takes the bulk path — a function of the input.

        The class itself must define ``_bulk_link_sets``: a family without a
        bulk form of its own, including a subclass of a family that has
        one, builds by its reference.  Ids must fit numpy's uint64
        arithmetic (under 64 bits) and the network must exceed
        :data:`BULK_THRESHOLD` nodes; families whose input can lack a bulk
        form narrow this further.
        """
        return (
            "_bulk_link_sets" in vars(type(self))
            and self.space.bits < 64
            and self.size > BULK_THRESHOLD
        )

    def _reference_link_sets(self) -> LinkSource:
        """Per-node link sets by the scalar reference construction."""
        raise NotImplementedError

    def _finalize_links(self, links: LinkSource) -> None:
        """Install a construction's links as the CSR, the only installer.

        Duplicates and self-links drop out and every row comes out sorted
        by id, which lets the greedy routing engines take each step with a
        binary search instead of a scan.  A set dict naming a target
        outside the network has no CSR form; it is installed as ``links``
        instead, so :meth:`check_links_valid` can name the stranger.
        """
        if isinstance(links, Mapping):
            try:
                links = self._set_edges(links)
            except ValueError:
                self.links = {node: [] for node in self.node_ids}
                for node, targets in links.items():
                    self.links[node] = sorted(set(targets) - {node})
                self._built = True
                return
        self._csr = edges_to_csr(self.size, *links)
        self._links = None
        self._built = True

    def _set_edges(self, link_sets: Mapping[int, Set[int]]) -> Edges:
        """``(src, dst)`` positions of per-node target sets.

        Raises ValueError on a row or a target that is no node's id.
        """
        if not self._id_set.issuperset(link_sets):
            raise ValueError("link table row for unknown node")
        rows = [link_sets.get(node, ()) for node in self.node_ids]
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=self.size)
        src = np.repeat(np.arange(self.size, dtype=np.int64), counts)
        return src, self._positions([t for row in rows for t in row])

    def _positions(self, targets: List[int]) -> np.ndarray:
        """Positions of ``targets`` in ``node_ids`` (ValueError on a stranger)."""
        ids = self.id_array
        stranger = ValueError("link table references ids outside the network")
        try:
            values = np.asarray(targets, dtype=ids.dtype)
        except OverflowError:  # past uint64: no node's id
            raise stranger from None
        pos = np.searchsorted(ids, values)
        found = ids[np.minimum(pos, self.size - 1)] if values.size else values
        if not np.array_equal(found, values):
            raise stranger
        return pos

    @cached_property
    def id_array(self) -> np.ndarray:
        """``node_ids`` as a read-only array (uint64; objects past 64 bits)."""
        ids = np.asarray(
            self.node_ids, dtype=np.uint64 if self.space.bits <= 64 else object
        )
        ids.flags.writeable = False
        return ids

    @property
    def links(self) -> Dict[int, List[int]]:
        """node -> sorted out-link ids, materialised from the CSR on first read."""
        if self._links is None:
            indptr, nbr_pos = self._csr
            targets = self.id_array[nbr_pos].tolist()
            cuts = indptr.tolist()
            self._links = {
                node: targets[a:b] for node, a, b in zip(self.node_ids, cuts, cuts[1:])
            }
            self._csr = None  # the dict is the source of truth from here on
        return self._links

    @links.setter
    def links(self, table: Dict[int, List[int]]) -> None:
        self._links = table
        self._csr = None

    def link_csr(self) -> LinkCSR:
        """``(indptr, nbr_pos)`` of the link table as it stands.

        The CSR a construction installed while ``links`` has never been
        read; after that, re-derived from ``links`` row by row, in each
        row's own order (ValueError if a link names no node).
        """
        if self._links is None:
            return self._csr
        rows = [self._links[node] for node in self.node_ids]
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=self.size)
        pos = self._positions([t for row in rows for t in row])
        dt = _index_dtype(self.size, pos.size)
        indptr = np.zeros(self.size + 1, dtype=dt)
        np.cumsum(counts, out=indptr[1:])
        return indptr, pos.astype(dt)

    def require_built(self) -> None:
        """Raise unless :meth:`build` has completed."""
        if not self._built:
            raise RuntimeError(
                f"{type(self).__name__} has not been built; call .build() first"
            )

    # ------------------------------------------------------------- topology

    @property
    def size(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._id_set

    def neighbors(self, node_id: int) -> List[int]:
        """Out-neighbors of a node, sorted by identifier."""
        return self.links[node_id]

    def _degree_array(self) -> np.ndarray:
        """Out-degrees in node-id order: the CSR's row lengths.

        Once ``links`` exists its row lengths are the same numbers, read
        without re-deriving the arrays.
        """
        if self._links is None:
            return np.diff(self._csr[0])
        rows = (self._links[node] for node in self.node_ids)
        return np.fromiter(map(len, rows), dtype=np.int64, count=self.size)

    def degree(self, node_id: int) -> int:
        """Out-degree (the paper's "number of links"; in-links not counted)."""
        if self._links is None and node_id in self._id_set:
            indptr = self._csr[0]
            pos = successor_index(self.node_ids, node_id)
            return int(indptr[pos + 1] - indptr[pos])
        return len(self.links[node_id])

    def degrees(self) -> List[int]:
        """Out-degrees of all nodes, in node-id order."""
        return self._degree_array().tolist()

    def average_degree(self) -> float:
        """Mean out-degree (the y-axis of the paper's Figure 3)."""
        return int(self._degree_array().sum()) / max(1, self.size)

    def degree_distribution(self) -> Dict[int, float]:
        """PDF of node degree (Figure 4 of the paper)."""
        values, counts = np.unique(self._degree_array(), return_counts=True)
        total = float(self.size)
        return {deg: cnt / total for deg, cnt in zip(values.tolist(), counts.tolist())}

    def max_degree(self) -> int:
        """Largest out-degree (Theorem 3's w.h.p. subject)."""
        return int(self._degree_array().max(initial=0))

    # ---------------------------------------------------------- ring lookups

    def successor(self, ident: int, within: Optional[Sequence[int]] = None) -> int:
        """First node id >= ``ident`` clockwise (optionally within a domain list)."""
        ids = self.node_ids if within is None else within
        return ids[successor_index(ids, ident)]

    def responsible_node(self, key: int, within: Optional[Sequence[int]] = None) -> int:
        """The node managing ``key``: last node id <= key, cyclically.

        Implements the paper's inverted responsibility rule (Section 4.1
        footnote): a node is responsible for keys in ``[own id, next id)``.
        """
        ids = self.node_ids if within is None else within
        return ids[predecessor_index(ids, key)]

    # ------------------------------------------------------------ invariants

    def iter_link_violations(self) -> Iterable[tuple]:
        """Yield ``(node, link, reason)`` for every malformed link entry.

        Checks that every target exists, no node links to itself, and each
        node's link list is strictly sorted (the binary-search routing step
        in :mod:`repro.core.routing` relies on sortedness, and duplicates
        inflate the paper's degree figures).
        """
        self.require_built()
        for node, targets in self.links.items():
            if node not in self._id_set:
                yield (node, None, "link table row for unknown node")
            for prev, target in zip(targets, targets[1:]):
                if target <= prev:
                    yield (
                        node,
                        target,
                        f"link list not strictly sorted ({prev} then {target})",
                    )
            for target in targets:
                if target == node:
                    yield (node, target, "links to itself")
                elif target not in self._id_set:
                    yield (node, target, "links to unknown node")

    def check_links_valid(self) -> None:
        """Raise :class:`LinkTableError` on the first malformed link entry.

        The error names the offending node and link and the reason, so a
        failure in a 10^5-node build pinpoints the broken table row.
        """
        for node, link, reason in self.iter_link_violations():
            raise LinkTableError(node, link, reason)


def edges(network: DHTNetwork) -> Iterable[tuple]:
    """All directed (src, dst) link pairs of a built network."""
    network.require_built()
    for node in network.node_ids:
        for target in network.links[node]:
            yield (node, target)
