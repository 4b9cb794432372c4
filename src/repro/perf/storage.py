"""Vectorized data plane: bulk placement, batch put/get, repair scans.

The scalar data plane (:mod:`repro.storage`) walks Python objects one key at
a time: every put computes a per-domain responsible node with a list bisect,
every get is a hop-by-hop object walk with per-item access checks, and every
churn-era repair decision re-sorts domain member lists per key.  This module
gives the data layer the same treatment :mod:`repro.perf.build` gave
construction and :mod:`repro.perf.kernels` gave routing:

- **Vectorized replica placement** (:func:`plan_puts`): arrays of key hashes
  plus a storage/access domain pair become home nodes, pointer locations and
  the full replica matrix via ``searchsorted`` sweeps over per-domain sorted
  member arrays — bit-identical to
  :meth:`~repro.storage.store.HierarchicalStore.put` placement and
  :meth:`~repro.storage.replication.ReplicatedStore.replica_nodes`.

- **Batch put** (:func:`bulk_put` / :func:`bulk_put_replicated`): apply a
  placement plan to a scalar store in one sweep, leaving the store's
  ``_items`` / ``_pointers`` dicts exactly as the equivalent sequence of
  scalar ``put`` calls would (bucket insertion order included, so follow-up
  scalar reads are indistinguishable).

- **Batch get** (:class:`CompiledStore`): thousands of hierarchical lookups
  frontier-at-a-time over the compiled ring tables of
  :class:`~repro.perf.kernels.CompiledNetwork`, with access-domain
  visibility as integer prefix-code compares (see :class:`DomainIndex`) and
  pointer indirections resolved through a single batched fetch-leg routing
  call.  The returned :class:`BatchSearchResult` is columnar (paths and
  answers as CSR arrays, per-query lists built only when read) and
  reconstructs scalar :class:`~repro.storage.store.SearchResult` objects
  field-for-field;
  ``repro.verify.compare_storage`` holds them hop-for-hop and (with a
  latency table) bit-for-bit equal to the scalar walk.

- **Vectorized repair scans** (:func:`repair_scan` / :class:`FastDataLayer`):
  at each rebalance, responsibility and surviving copies over the whole
  keyspace are recomputed in one pass per storage domain, giving the same
  holder assignments and ``replicate`` count as the scalar
  :meth:`~repro.simulation.data.DataLayer._rebalance` in one aggregated
  ``_count``.  :class:`FastDataLayer` is
  :class:`~repro.simulation.data.DataLayer` with that sweep as its only
  redefinition; puts, gets and the leave handoff are the scalar layer's.

The visibility compare rests on an exact identity: with ``lca(o, c)`` the
longest common prefix of the origin's and current node's paths,
``is_ancestor(A, lca(o, c))`` holds iff ``A`` is a prefix of *both* paths —
two integer compares against precomputed per-node prefix codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.hierarchy import DomainPath, ROOT, is_ancestor
from ..core.routing import MAX_HOPS
from ..obs import metrics as obs_metrics
from ..simulation.data import DataLayer
from ..storage.store import HierarchicalStore, Pointer, SearchResult, StoredItem
from ..storage.replication import ReplicatedStore
from .kernels import CompiledNetwork, _in_sorted, _ring_hop, compile_network

_U64 = np.uint64

__all__ = [
    "BatchSearchResult",
    "CompiledStore",
    "DomainIndex",
    "FastDataLayer",
    "PutPlan",
    "RepairPlan",
    "bulk_put",
    "bulk_put_replicated",
    "plan_puts",
    "repair_scan",
    "scalar_search_latency",
]


_record = obs_metrics.record_counter


def _predecessor_positions(members: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.idspace.predecessor_index` over a ring.

    ``searchsorted(side="right") - 1`` is the last member ``<= key``;
    a negative result (key below every member) wraps to the last member,
    exactly like the scalar bisect with its ``% len`` wrap.
    """
    pos = np.searchsorted(members, keys, side="right").astype(np.int64) - 1
    return np.where(pos < 0, members.size - 1, pos)


def _replica_runs(members: np.ndarray, start: np.ndarray, replicas: int) -> np.ndarray:
    """Per-key holder runs: row ``i`` is ``members[start[i]]`` then its ring
    predecessors, ``min(replicas, members.size)`` entries in all."""
    offsets = np.arange(min(replicas, int(members.size)), dtype=np.int64)
    return members[(start[:, None] - offsets) % members.size]


class DomainIndex:
    """Per-domain sorted member arrays + integer prefix codes for a hierarchy.

    Every distinct domain path is interned to a small integer code; for each
    node position ``p`` (into the sorted ``ids`` array) and depth ``d``,
    ``prefix_code[p, d]`` is the code of the first ``d`` components of the
    node's path (``-1`` beyond the path's length).  ``is_ancestor(A, path)``
    then collapses to ``prefix_code[p, len(A)] == code(A)`` — one integer
    gather and compare, with domains deeper than the hierarchy always false.
    """

    def __init__(self, hierarchy, ids: Sequence[int]) -> None:
        self.hierarchy = hierarchy
        self.ids = np.asarray(ids, dtype=_U64)
        if self.ids.size and np.any(self.ids[1:] <= self.ids[:-1]):
            self.ids = np.sort(self.ids)
        self._codes: Dict[DomainPath, int] = {}
        self._members: Dict[DomainPath, np.ndarray] = {}
        paths = [hierarchy.path_of(int(i)) for i in self.ids.tolist()]
        self.max_depth = max((len(p) for p in paths), default=0)
        self.prefix_code = np.full(
            (self.ids.size, self.max_depth + 1), -1, dtype=np.int64
        )
        for pos, path in enumerate(paths):
            for depth in range(len(path) + 1):
                self.prefix_code[pos, depth] = self.code(path[:depth])

    def code(self, domain: DomainPath) -> int:
        """Interned integer code of a domain path (assigned on first use)."""
        code = self._codes.get(domain)
        if code is None:
            code = self._codes[domain] = len(self._codes)
        return code

    def ancestor_probe(self, domain: DomainPath) -> Tuple[int, int]:
        """``(code, depth)`` such that node at position ``p`` lies under
        ``domain`` iff ``prefix_code[p, depth] == code``."""
        depth = len(domain)
        if depth > self.max_depth:
            return -2, 0  # deeper than any node path: matches nothing
        return self.code(domain), depth

    def members(self, domain: DomainPath) -> np.ndarray:
        """Sorted member ids of ``domain`` as a uint64 array (cached)."""
        arr = self._members.get(domain)
        if arr is None:
            arr = np.asarray(
                self.hierarchy.sorted_members(domain), dtype=_U64
            )
            self._members[domain] = arr
        return arr

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Index of each node id in the sorted ``ids`` array."""
        pos = np.minimum(
            np.searchsorted(self.ids, values), self.ids.size - 1
        ).astype(np.int64)
        bad = self.ids[pos] != values
        if np.any(bad):
            raise KeyError(f"node {int(np.asarray(values)[bad][0])} not in hierarchy")
        return pos

    def home_positions(self, keys: np.ndarray, domain: DomainPath) -> np.ndarray:
        """Per-key predecessor index into ``members(domain)``."""
        members = self.members(domain)
        if members.size == 0:
            raise ValueError(f"domain {domain!r} has no members")
        return _predecessor_positions(members, keys)


def store_domain_index(store: HierarchicalStore) -> DomainIndex:
    """The (memoized) :class:`DomainIndex` of a store's network."""
    cached = store.__dict__.get("_perf_domain_index")
    if cached is None:
        cached = DomainIndex(store.hierarchy, store.network.node_ids)
        store.__dict__["_perf_domain_index"] = cached
    return cached


# ------------------------------------------------------------------ placement


@dataclass
class PutPlan:
    """Vectorized placement for a batch of puts sharing one domain pair.

    ``pointer_nodes`` mirrors the scalar put's second return value: the
    access-domain responsible node whenever the access domain differs from
    the storage domain (even when it coincides with the home), else ``None``.
    ``replica_sets`` is the ``(m, count)`` holder matrix (primary first,
    then ring predecessors) when a replica count was requested.
    """

    key_hashes: np.ndarray
    storage_domain: DomainPath
    access_domain: DomainPath
    homes: np.ndarray
    pointer_nodes: Optional[np.ndarray] = None
    replica_sets: Optional[np.ndarray] = None


def plan_puts(
    index: DomainIndex,
    key_hashes: Sequence[int],
    storage_domain: Optional[DomainPath] = None,
    access_domain: Optional[DomainPath] = None,
    replicas: Optional[int] = None,
) -> PutPlan:
    """Compute homes / pointer nodes / replica sets for a batch of keys.

    Bit-identical to per-key :meth:`HierarchicalStore.home_node` and
    :meth:`ReplicatedStore.replica_nodes`: the home is the ring predecessor
    (or equal) member of the storage domain, the pointer node the same
    within the access domain, and replica ``i`` the ``i``-th ring
    predecessor of the home among the domain members.
    """
    storage_domain = ROOT if storage_domain is None else tuple(storage_domain)
    access_domain = ROOT if access_domain is None else tuple(access_domain)
    keys = np.asarray(key_hashes, dtype=_U64)
    members = index.members(storage_domain)
    if members.size == 0:
        raise ValueError(f"domain {storage_domain!r} has no members")
    start = _predecessor_positions(members, keys)
    homes = members[start]
    pointer_nodes: Optional[np.ndarray] = None
    if access_domain != storage_domain:
        access_members = index.members(access_domain)
        if access_members.size == 0:
            raise ValueError(f"domain {access_domain!r} has no members")
        pointer_nodes = access_members[_predecessor_positions(access_members, keys)]
    replica_sets: Optional[np.ndarray] = None
    if replicas is not None:
        replica_sets = _replica_runs(members, start, int(replicas))
    return PutPlan(keys, storage_domain, access_domain, homes, pointer_nodes, replica_sets)


def bulk_put(
    store: HierarchicalStore,
    origins: Sequence[int],
    keys: Sequence[object],
    values: Sequence[object],
    storage_domain: Optional[DomainPath] = None,
    access_domain: Optional[DomainPath] = None,
) -> PutPlan:
    """Batch :meth:`HierarchicalStore.put` for one ``(storage, access)`` pair.

    Leaves the store's internal state exactly as the same sequence of scalar
    puts (in argument order) would: items append to the home bucket in order,
    and a pointer is recorded only when the access-domain responsible node
    differs from the home.  Bulk calls with *different* domain pairs commute
    with each other unless two of their keys share a home bucket (same node
    and key hash) — practically, unless the same key is put twice.
    """
    storage_domain = ROOT if storage_domain is None else tuple(storage_domain)
    access_domain = ROOT if access_domain is None else tuple(access_domain)
    index = store_domain_index(store)
    origin_arr = np.asarray(list(origins), dtype=_U64)
    m = int(origin_arr.size)
    if not (len(keys) == len(values) == m):
        raise ValueError(f"{m} origins vs {len(keys)} keys / {len(values)} values")
    scode, sdepth = index.ancestor_probe(storage_domain)
    contained = index.prefix_code[index.positions(origin_arr), sdepth] == scode
    if not bool(np.all(contained)):
        offender = int(origin_arr[~contained][0])
        raise ValueError(
            f"storage domain {storage_domain!r} does not contain node {offender}"
        )
    if not is_ancestor(access_domain, storage_domain):
        raise ValueError(
            f"access domain {access_domain!r} is not a superset of "
            f"storage domain {storage_domain!r}"
        )
    space = store.space
    hashes = [space.hash_key(key) for key in keys]
    plan = plan_puts(index, hashes, storage_domain, access_domain)
    items = store._items
    pointers = store._pointers
    homes = plan.homes.tolist()
    pointer_nodes = (
        plan.pointer_nodes.tolist() if plan.pointer_nodes is not None else None
    )
    for i in range(m):
        home = homes[i]
        key_hash = hashes[i]
        items.setdefault(home, {}).setdefault(key_hash, []).append(
            StoredItem(keys[i], key_hash, values[i], storage_domain, access_domain)
        )
        if pointer_nodes is not None and pointer_nodes[i] != home:
            pointers.setdefault(pointer_nodes[i], {}).setdefault(
                key_hash, []
            ).append(Pointer(key_hash, home, storage_domain, access_domain))
    _record("storage.puts", m)
    return plan


def bulk_put_replicated(
    rstore: ReplicatedStore,
    origins: Sequence[int],
    keys: Sequence[object],
    values: Sequence[object],
    storage_domain: Optional[DomainPath] = None,
    access_domain: Optional[DomainPath] = None,
) -> PutPlan:
    """Batch :meth:`ReplicatedStore.put`: bulk insert + replica copies.

    Replica copies duplicate the *first* stored item for the key at the home
    bucket (the scalar path's ``next(...)`` pick), so repeated puts of one
    key replicate the original value exactly as the scalar store does.
    """
    store = rstore.store
    plan = bulk_put(store, origins, keys, values, storage_domain, access_domain)
    replicated = plan_puts(
        store_domain_index(store),
        plan.key_hashes,
        plan.storage_domain,
        plan.access_domain,
        replicas=rstore.replicas,
    )
    holders = replicated.replica_sets
    assert holders is not None
    items = store._items
    homes = plan.homes.tolist()
    hashes = plan.key_hashes.tolist()
    copies = 0
    holder_rows = holders.tolist()
    for i, key in enumerate(keys):
        key_hash = hashes[i]
        original = next(
            it for it in items[homes[i]][key_hash] if it.key == key
        )
        for holder in holder_rows[i][1:]:
            items.setdefault(holder, {}).setdefault(key_hash, []).append(
                StoredItem(
                    original.key, original.key_hash, original.value,
                    original.storage_domain, original.access_domain,
                )
            )
            copies += 1
        rstore.replica_sets[key_hash] = holder_rows[i]
    _record("storage.replica_copies", copies)
    plan.replica_sets = holders
    return plan


# ------------------------------------------------------------------ batch get


@dataclass
class BatchSearchResult:
    """Outcome of one batch hierarchical lookup, aligned index-for-index.

    The record is columnar.  Paths are CSR: query ``i`` walked
    ``path_ids[path_ends[i - 1]:path_ends[i]]`` (from ``0`` for the first
    query), and ``hops`` is each path's length minus one.  Answers are CSR
    too: ``value_entries`` indexes ``value_column``, the snapshot's value
    column, under the row ends ``value_ends``.  ``paths`` and ``values``
    are the same records as per-query lists, built on first read and then
    cached, so a caller that only reads columns never pays for them.

    ``found_at`` / ``content_node`` hold ``-1`` where the scalar result is
    ``None``; :meth:`results` reconstructs the scalar
    :class:`~repro.storage.store.SearchResult` objects field-for-field.
    ``latency_ms`` (when routed with a latency table) matches
    :func:`scalar_search_latency` bit-for-bit: a float64 left fold over the
    walk, plus twice the fetch leg for pointer answers.  ``probes`` counts
    local-answer probes across all hops (the batch analogue of the scalar
    walk's per-node store checks).
    """

    keys: List[object]
    key_hashes: np.ndarray
    origins: np.ndarray
    path_ids: np.ndarray
    path_ends: np.ndarray
    found_at: np.ndarray
    via_pointer: np.ndarray
    pointer_hops: np.ndarray
    content_node: np.ndarray
    value_entries: np.ndarray
    value_ends: np.ndarray
    value_column: Sequence[object] = field(repr=False)
    latency_ms: Optional[np.ndarray] = None
    probes: int = 0
    hops: np.ndarray = field(init=False)
    _paths: Optional[List[List[int]]] = field(default=None, init=False, repr=False)
    _values: Optional[List[List[object]]] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.hops = np.diff(self.path_ends, prepend=0) - 1

    @property
    def size(self) -> int:
        return int(self.origins.size)

    @property
    def found(self) -> np.ndarray:
        return self.found_at >= 0

    @property
    def paths(self) -> List[List[int]]:
        """Every query's walk as a list of node ids (built once, cached)."""
        if self._paths is None:
            self._paths = _split(self.path_ids.tolist(), self.path_ends.tolist())
        return self._paths

    @property
    def values(self) -> List[List[object]]:
        """Every query's answer values as a list (built once, cached)."""
        if self._values is None:
            column = self.value_column
            flat = list(map(column.__getitem__, self.value_entries.tolist()))
            self._values = _split(flat, self.value_ends.tolist())
        return self._values

    def results(self) -> Iterator[SearchResult]:
        """Scalar :class:`SearchResult` objects, index-aligned."""
        paths, values = self.paths, self.values
        for i in range(self.size):
            found_at = int(self.found_at[i])
            content = int(self.content_node[i])
            yield SearchResult(
                self.keys[i],
                values[i],
                paths[i],
                found_at if found_at >= 0 else None,
                bool(self.via_pointer[i]),
                int(self.pointer_hops[i]),
                content if content >= 0 else None,
            )


def _run_starts(sorted_arr: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values."""
    if sorted_arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(
        np.concatenate(([True], sorted_arr[1:] != sorted_arr[:-1]))
    )


def _expand_ranges(lo: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(row, entry)`` pairs of the ranges ``[lo, lo + count)``.

    Rows ascend and each row's entries ascend, so a boolean filter of the
    pair keeps both orders; rows with ``count == 0`` contribute nothing.
    """
    rows = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count  # where each row's run starts in `rows`
    entries = np.arange(rows.size) + np.repeat(lo - first, count)
    return rows, entries


def _regroup(
    row_chunks: List[np.ndarray], index_chunks: List[np.ndarray], m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Hop-major ``(row, index)`` records regrouped per row, as CSR.

    Returns the indices grouped by ascending row, each row's kept in hop
    order, and the int64 end offset of every one of the ``m`` rows' runs
    (rows without a record get an empty run).  The chunk lists are emptied as
    they are concatenated — into int32, which query rows, node positions
    and item entries all fit — so the records are never held twice.
    """
    empty = [np.zeros(0, dtype=np.int32)]
    rows = np.concatenate(row_chunks or empty, dtype=np.int32)
    row_chunks.clear()
    ends = np.cumsum(np.bincount(rows, minlength=m), dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    del rows
    index = np.concatenate(index_chunks or empty, dtype=np.int32)
    index_chunks.clear()
    return index[order], ends


def _split(flat: Sequence[object], ends: List[int]) -> List[List[object]]:
    """``flat`` cut into one fresh list per run ending at ``ends``."""
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _column(entries: list, name: str) -> list:
    """One attribute of every entry, as a list."""
    return list(map(attrgetter(name), entries))


class _Buckets:
    """A sorted composite-key column grouped into buckets.

    ``keys`` holds each distinct composite key once and ``bounds`` the
    entry range of its bucket, so one binary search over the distinct keys
    bounds a whole bucket.
    """

    def __init__(self, sorted_combos: np.ndarray) -> None:
        first = _run_starts(sorted_combos)
        self.keys = sorted_combos[first]
        self.bounds = np.append(first, sorted_combos.size).astype(np.int64)

    def ranges(self, combos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per query ``(lo, count)`` of its bucket; ``count`` 0 on a miss."""
        if self.keys.size == 0:
            zeros = np.zeros(combos.size, dtype=np.int64)
            return zeros, zeros
        # Search the needles in ascending order: the probes then sweep the key
        # column once instead of jumping through it (49K needles in 73K keys:
        # 5.8 ms in frontier order, 1.2 ms sorted plus 0.75 ms for the argsort).
        order = np.argsort(combos)
        at = np.empty(combos.size, dtype=np.int64)
        at[order] = np.searchsorted(self.keys, combos[order])
        np.minimum(at, self.keys.size - 1, out=at)
        lo = self.bounds[at]
        return lo, np.where(self.keys[at] == combos, self.bounds[at + 1] - lo, 0)


class CompiledStore:
    """A :class:`HierarchicalStore` snapshot in array form for batch gets.

    Items and pointers are flattened into columns sorted by a composite
    key — items under ``(node position << key-id bits) | interned key id``,
    pointers under ``(node position << id-space bits) | key hash`` — each
    with aligned access-domain prefix codes and a :class:`_Buckets` index
    over the distinct composite keys.  A batch get walks all queries
    frontier-at-a-time over the compiled ring tables; per hop, one search
    bounds every query's bucket, the non-empty buckets are expanded into
    flat ``(row, entry)`` arrays, and access is one prefix-code compare over
    those arrays.  Nothing in the walk visits a row or an entry in Python:
    answers are kept as entry indices and paths as per-hop position records,
    regrouped once after the last hop into the CSR columns of a
    :class:`BatchSearchResult`, which builds Python lists only when read.

    The snapshot covers keys as well as content: every stored key is
    interned with the ``key_hash`` its :class:`StoredItem` carries, so a
    query hashes only keys the store has never seen.  Key identity is
    dict-based, matching the scalar path's ``item.key == key`` for hashable
    keys.  Rebuild after mutating the underlying store.
    """

    def __init__(
        self,
        store: HierarchicalStore,
        compiled: Optional[CompiledNetwork] = None,
    ) -> None:
        self.store = store
        self.compiled = compiled or compile_network(store.network)
        self.index = store_domain_index(store)

        items, pos = self._flatten(store._items)
        keys = _column(items, "key")
        # Query keys unknown to the store map to a sentinel id that matches
        # no bucket; its slot in the hash column is overwritten per query.
        hash_of = dict(zip(keys, _column(items, "key_hash")))
        self._key_ids: Dict[object, int] = dict(zip(hash_of, range(len(hash_of))))
        self._n_keys = len(hash_of)
        self._key_hash = np.fromiter(
            chain(hash_of.values(), (0,)), dtype=_U64, count=self._n_keys + 1
        )
        kid_bits = max(1, int(self._n_keys).bit_length())
        pos_bits = max(1, int(self.compiled.ids.size - 1).bit_length())
        if pos_bits + kid_bits > 64:
            raise ValueError("store too large for 64-bit item keys")
        self._kid_shift = _U64(kid_bits)
        kids = np.fromiter(
            map(self._key_ids.__getitem__, keys), dtype=_U64, count=len(keys)
        )
        combos = (pos << self._kid_shift) | kids
        order = np.argsort(combos, kind="stable")  # keeps bucket order
        self._item_buckets = _Buckets(combos[order])
        values = _column(items, "value")
        self._item_value = [values[i] for i in order.tolist()]
        code, depth = self._probe_columns(_column(items, "access_domain"))
        self._item_code, self._item_depth = code[order], depth[order]

        pointers, pos = self._flatten(store._pointers)
        self._bits_shift = _U64(int(self.compiled.bits))
        hashes = np.fromiter(
            _column(pointers, "key_hash"), dtype=_U64, count=len(pointers)
        )
        combos = (pos << self._bits_shift) | hashes
        order = np.argsort(combos, kind="stable")
        self._ptr_buckets = _Buckets(combos[order])
        homes = np.fromiter(
            _column(pointers, "home_node"), dtype=_U64, count=len(pointers)
        )
        self._ptr_home_pos = self.compiled._positions(homes)[order]
        code, depth = self._probe_columns(_column(pointers, "access_domain"))
        self._ptr_code, self._ptr_depth = code[order], depth[order]

    def _flatten(self, by_node: Dict[int, Dict[int, list]]) -> Tuple[list, np.ndarray]:
        """The entries of ``store._items`` / ``store._pointers`` in store
        order (node, bucket, insertion), with each entry's node position."""
        entries = [
            entry
            for buckets in by_node.values()
            for bucket in buckets.values()
            for entry in bucket
        ]
        per_node = [sum(map(len, buckets.values())) for buckets in by_node.values()]
        nodes = np.fromiter(by_node, dtype=_U64, count=len(by_node))
        return entries, np.repeat(self.compiled._positions(nodes), per_node).astype(_U64)

    def _probe_columns(self, domains: List[DomainPath]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-entry ``ancestor_probe`` columns, one probe per distinct domain."""
        distinct = {domain: i for i, domain in enumerate(dict.fromkeys(domains))}
        probes = np.array(
            [self.index.ancestor_probe(domain) for domain in distinct], dtype=np.int64
        ).reshape(-1, 2)
        which = np.fromiter(
            map(distinct.__getitem__, domains), dtype=np.int64, count=len(domains)
        )
        return probes[which, 0], probes[which, 1]

    # ----------------------------------------------------------- probe steps

    def _visible(
        self, code: np.ndarray, depth: np.ndarray, origin: np.ndarray, cur: np.ndarray
    ) -> np.ndarray:
        """Access check per flat entry: the access domain must be a prefix
        of both the origin's and the current node's path."""
        prefix = self.index.prefix_code
        return (prefix[origin, depth] == code) & (prefix[cur, depth] == code)

    def _probe_items(
        self, cur: np.ndarray, origin: np.ndarray, kids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Visible stored items at the frontier nodes, per query.

        Returns a hit mask over the frontier plus the flat ``(row, item
        entry)`` pairs of the visible items, rows ascending and entries in
        bucket insertion order — exactly the scalar ``_local_answer`` item
        branch.
        """
        combos = (cur.astype(_U64) << self._kid_shift) | kids
        rows, entries = _expand_ranges(*self._item_buckets.ranges(combos))
        visible = self._visible(
            self._item_code[entries], self._item_depth[entries], origin[rows], cur[rows]
        )
        rows, entries = rows[visible], entries[visible]
        hit = np.zeros(cur.size, dtype=bool)
        hit[rows] = True
        return hit, rows, entries

    def _probe_pointers(
        self,
        cur: np.ndarray,
        origin: np.ndarray,
        kids: np.ndarray,
        key_hashes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First resolvable visible pointer at the frontier nodes, per query.

        Returns the content-home position (``-1`` when no pointer resolves)
        plus the flat ``(row, item entry)`` pairs of the remote values — the
        scalar pointer branch: visible pointers in insertion order, taking
        the first whose home bucket holds the key (no visibility check on
        the remote copy).
        """
        combos = (cur.astype(_U64) << self._bits_shift) | key_hashes
        rows, entries = _expand_ranges(*self._ptr_buckets.ranges(combos))
        visible = self._visible(
            self._ptr_code[entries], self._ptr_depth[entries], origin[rows], cur[rows]
        )
        rows = rows[visible]
        home_pos = self._ptr_home_pos[entries[visible]]
        lo, count = self._item_buckets.ranges(
            (home_pos.astype(_U64) << self._kid_shift) | kids[rows]
        )
        held = np.flatnonzero(count)  # pointers whose home bucket holds the key
        first = held[_run_starts(rows[held])]  # the first such pointer of each row
        rows = rows[first]
        resolved = np.full(cur.size, -1, dtype=np.int64)
        resolved[rows] = home_pos[first]
        answered, entries = _expand_ranges(lo[first], count[first])
        return resolved, rows[answered], entries

    # ------------------------------------------------------------------- get

    def batch_get(
        self,
        origins: Sequence[int],
        keys: Sequence[object],
        latency=None,
    ) -> BatchSearchResult:
        """Batch hierarchical lookup (``first_match`` semantics).

        Every query walks the greedy ring path from its origin; at each hop
        the whole frontier probes stored items (visible at the current
        routing level on both the origin and current sides of the prefix
        identity), then pointers, then takes one vectorized ring step.
        Pointer fetch legs are routed as one batch call afterwards.

        Keys are resolved against the snapshot taken when this
        :class:`CompiledStore` was built, hashes included: a key put into
        the underlying store afterwards is an unknown key here — it is
        hashed, walks the greedy path toward that hash and is never found —
        until the store is compiled again.
        """
        compiled = self.compiled
        space = self.store.space
        keys = list(keys)
        m = len(keys)
        origin_arr = np.asarray(list(origins), dtype=_U64)
        if origin_arr.size != m:
            raise ValueError(f"{origin_arr.size} origins vs {m} keys")
        kid_index = np.fromiter(
            map(self._key_ids.get, keys, repeat(self._n_keys)), dtype=np.int64, count=m
        )
        key_hashes = self._key_hash[kid_index]
        for row in np.flatnonzero(kid_index == self._n_keys).tolist():
            key_hashes[row] = space.hash_key(keys[row])
        kids = kid_index.astype(_U64)
        cur = compiled._positions(origin_arr)
        origin_pos = cur.copy()
        found_at_pos = np.full(m, -1, dtype=np.int64)
        content_pos = np.full(m, -1, dtype=np.int64)
        via_pointer = np.zeros(m, dtype=bool)
        # Hop-major records, regrouped per query after the walk: the
        # positions each step reached, and the item entries of each answer.
        active = np.arange(m, dtype=np.int64)
        step_rows: List[np.ndarray] = [active]
        step_pos: List[np.ndarray] = [origin_pos]
        value_rows: List[np.ndarray] = []
        value_entries: List[np.ndarray] = []
        lat_state = compiled._latency_state(latency)
        lat = np.zeros(m, dtype=np.float64) if lat_state is not None else None
        if lat_state is not None:
            lr, lmat, lhop2 = lat_state
        table = compiled._step_table(None)
        probes = 0
        for _ in range(MAX_HOPS):
            if active.size == 0:
                break
            frontier = cur[active]
            opos = origin_pos[active]
            fkids = kids[active]
            probes += int(active.size)
            hit, rows, entries = self._probe_items(frontier, opos, fkids)
            if rows.size:
                answered = active[hit]
                found_at_pos[answered] = content_pos[answered] = frontier[hit]
                value_rows.append(active[rows])
                value_entries.append(entries)
                keep = ~hit
                active = active[keep]
                frontier = frontier[keep]
                opos = opos[keep]
                fkids = fkids[keep]
                if active.size == 0:
                    break
            resolved, rows, entries = self._probe_pointers(
                frontier, opos, fkids, key_hashes[active]
            )
            if rows.size:
                via = resolved >= 0
                answered = active[via]
                found_at_pos[answered] = frontier[via]
                content_pos[answered] = resolved[via]
                via_pointer[answered] = True
                value_rows.append(active[rows])
                value_entries.append(entries)
                keep = ~via
                active = active[keep]
                frontier = frontier[keep]
                if active.size == 0:
                    break
            # One greedy ring step for the remaining frontier; a self-step
            # means the greedy walk is done (not found).
            remaining = (key_hashes[active] - compiled.ids[frontier]) & compiled.mask
            nxt = _ring_hop(table, frontier, remaining)
            moved = nxt != frontier
            active = active[moved]
            if active.size:
                new_pos = nxt[moved]
                if lat is not None:
                    lat[active] += lhop2 + lmat[
                        lr[frontier[moved]], lr[new_pos]
                    ].astype(np.float64)
                cur[active] = new_pos
                step_rows.append(active)
                step_pos.append(new_pos)
        if active.size:
            raise RuntimeError("lookup exceeded hop bound; broken network")

        pointer_hops = np.zeros(m, dtype=np.int64)
        resolved_rows = np.flatnonzero(via_pointer)
        if resolved_rows.size:
            fetch_src = compiled.ids[found_at_pos[resolved_rows]]
            fetch_dst = compiled.ids[content_pos[resolved_rows]]
            fetch = compiled.route_ring(fetch_src, fetch_dst, latency=latency)
            pointer_hops[resolved_rows] = 2 * fetch.hops
            if lat is not None:
                lat[resolved_rows] = lat[resolved_rows] + 2.0 * fetch.latency_ms

        found_at = np.where(
            found_at_pos >= 0,
            compiled.ids[np.maximum(found_at_pos, 0)].astype(np.int64),
            np.int64(-1),
        )
        content_node = np.where(
            content_pos >= 0,
            compiled.ids[np.maximum(content_pos, 0)].astype(np.int64),
            np.int64(-1),
        )
        positions, path_ends = _regroup(step_rows, step_pos, m)
        entries, value_ends = _regroup(value_rows, value_entries, m)
        _record("storage.gets", m)
        _record("storage.pointer_resolutions", int(resolved_rows.size))
        _record("storage.batch.probes", probes)
        return BatchSearchResult(
            keys=keys,
            key_hashes=key_hashes,
            origins=origin_arr,
            path_ids=compiled.ids[positions],
            path_ends=path_ends,
            found_at=found_at,
            via_pointer=via_pointer,
            pointer_hops=pointer_hops,
            content_node=content_node,
            value_entries=entries,
            value_ends=value_ends,
            value_column=self._item_value,
            latency_ms=lat,
            probes=probes,
        )


def scalar_search_latency(network, table, result: SearchResult) -> float:
    """Overlay milliseconds of a scalar search, batch-compatible bit-for-bit.

    The walk is the left-fold :meth:`~repro.perf.latency.LatencyTable.path_ms`
    over the search path; a pointer answer adds twice the fetch leg (the
    resolve-and-return round trip), in the same float64 operation order as
    :meth:`CompiledStore.batch_get` accumulates.
    """
    from ..core.routing import route_ring

    total = table.path_ms(result.path)
    if result.via_pointer and result.content_node is not None:
        fetch = route_ring(network, result.found_at, result.content_node)
        total = total + 2.0 * table.path_ms(fetch.path)
    return total


# ---------------------------------------------------------------- repair scan


@dataclass
class RepairPlan:
    """One vectorized repair sweep over a data layer's whole keyspace.

    ``desired`` is a ``(keys, replicas)`` matrix of post-repair holders
    (``-1`` padding past ``desired_count``); rows of lost keys (no surviving
    copy) have count zero.  ``replicate_msgs`` is the number of copy
    transfers the sweep would issue — exactly the scalar
    :meth:`~repro.simulation.data.DataLayer._rebalance` message count.
    """

    key_hashes: np.ndarray
    lost: np.ndarray
    desired: np.ndarray
    desired_count: np.ndarray
    replicate_msgs: int

    def holders_of(self, row: int) -> List[int]:
        """The post-repair holder list for one key row (primary first)."""
        return self.desired[row, : int(self.desired_count[row])].tolist()


def repair_scan(
    key_hashes: Sequence[int],
    storage_domains: Sequence[DomainPath],
    holder_rows: Sequence[Sequence[int]],
    members_of,
    live_ids: Sequence[int],
    replicas: int,
) -> RepairPlan:
    """Recompute responsibility + surviving copies over the whole keyspace.

    ``members_of(domain)`` must return the sorted live member ids of a
    domain as a uint64 array.  For every key: count the current holders
    still alive, mark keys with none as lost, recompute the desired holder
    run (responsible node + ring predecessors) per storage domain with one
    ``searchsorted`` sweep, and count one ``replicate`` per desired holder
    not already holding a live copy.
    """
    m = len(key_hashes)
    keys = np.asarray(key_hashes, dtype=_U64)
    width = max((len(row) for row in holder_rows), default=0)
    holder_matrix = np.full((m, max(width, 1)), -1, dtype=np.int64)
    for i, row in enumerate(holder_rows):
        if row:
            holder_matrix[i, : len(row)] = row
    live_sorted = np.asarray(sorted(live_ids), dtype=_U64)
    live_mask = _in_sorted(live_sorted, holder_matrix.astype(_U64))
    lost = ~live_mask.any(axis=1)
    live_holders = np.where(live_mask, holder_matrix, -1)

    groups: Dict[DomainPath, List[int]] = {}
    for i, domain in enumerate(storage_domains):
        groups.setdefault(domain, []).append(i)

    replica_cap = max(int(replicas), 1)
    desired = np.full((m, replica_cap), -1, dtype=np.int64)
    desired_count = np.zeros(m, dtype=np.int64)
    replicate_msgs = 0
    for domain, rows in groups.items():
        idx = np.asarray(rows, dtype=np.int64)
        idx = idx[~lost[idx]]
        if idx.size == 0:
            continue
        members = members_of(domain)
        if members.size == 0:
            continue  # no live member: scalar path also empties the holders
        start = _predecessor_positions(members, keys[idx])
        targets = _replica_runs(members, start, int(replicas)).astype(np.int64)
        count = targets.shape[1]
        missing = ~(targets[:, :, None] == live_holders[idx][:, None, :]).any(axis=2)
        replicate_msgs += int(missing.sum())
        desired[idx, :count] = targets
        desired_count[idx] = count
    return RepairPlan(keys, lost, desired, desired_count, replicate_msgs)


class FastDataLayer(DataLayer):
    """:class:`~repro.simulation.data.DataLayer` with a vectorized repair.

    Everything but the repair sweep is the scalar layer's own code; the
    sweep runs as one :func:`repair_scan` over the protocol's sorted live
    ring arrays (:meth:`~repro.simulation.protocol.SimulatedCrescendo.live_members`)
    and issues the same holder assignments and ``replicate`` count in one
    aggregated ``_count`` (equivalent, since
    :meth:`~repro.simulation.events.MessageStats.record_many` is additive).
    """

    def _rebalance(self) -> None:
        if not self.items:
            return
        net = self.net
        key_list = list(self.items)
        plan = repair_scan(
            key_list,
            [self.items[kh].storage_domain for kh in key_list],
            [self.holders.get(kh, []) for kh in key_list],
            lambda domain: np.asarray(net.live_members(domain), dtype=_U64),
            net.live_view(),
            self.replicas,
        )
        net._count("replicate", plan.replicate_msgs)
        for row, key_hash in enumerate(key_list):
            self.holders[key_hash] = plan.holders_of(row)
