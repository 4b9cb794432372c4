"""Vectorized bulk builders for the families the figure runs build at scale.

The scalar constructions in :mod:`repro.dhts` are the semantic reference:
one node at a time, one draw / binary search at a time.  At the paper's
4K-65K node figure scales that makes *building* the networks — not routing
them — the dominant cost of a figure run.  So the families those runs
build have a second, array-form construction beside their reference:

- Chord: one finger matrix over the sorted ids
  (:func:`repro.dhts.chord.bulk_finger_links`).
- Crescendo: one array pass per hierarchy depth (:func:`canon_merge`).
  A depth's rings are one sorted array of composite (domain rank, id)
  keys, so one ``searchsorted`` finds the fingers of every member of every
  ring, and the Canon merge rule is a mask on the result.
- Kademlia/Kandy: the same per-depth composite keys; two ``searchsorted``
  calls bound every open (member, bucket) pair of a depth, a vectorized
  binary-trie descent finds the deterministic XOR-closest contact
  (:func:`_xor_closest_in_ranges`), and each depth's contacts are resolved
  in one call (:func:`kandy_edges`; Kademlia is its root ring alone).
- Chord (Prox.) and Crescendo (Prox.) build beside their references in
  :mod:`repro.proximity.groups`: one repeat/offset pass for the dense
  groups, and per octave one ``searchsorted`` for the target group and a
  masked ``argmin`` over its members' latencies; Crescendo (Prox.) sweeps
  the rings below the root with :func:`crescendo_edges`.

The paper's other families (Symphony, Cacophony, ND-Chord, ND-Crescendo,
CAN, Can-Can, the naive and mixed-level networks) have no bulk form: no
figure or benchmark builds them past about 2,000 nodes, where their
reference builds take 0.1-0.7 s each (2-3 s for the all-pairs CAN and
Can-Can, which the experiments build at 600 nodes at most).

A builder returns ``(src, dst)`` position arrays into the sorted ids
(:data:`~repro.core.network.Edges`; repeats and self-links allowed), and
:meth:`~repro.core.network.DHTNetwork._finalize_links` turns them into the
network's CSR with one sort (:func:`repro.core.network.edges_to_csr`), so
no Python link dict exists until something reads ``links``.  Side outputs
follow suit where a dict would cost a figure run time: Kandy keeps
:func:`kandy_edges`' ``contact_at`` matrix and builds its ``contact_depth``
dict on first read (:func:`contact_depths`).

Randomized Kademlia/Kandy draw from a numpy ``Generator`` derived from the
caller's ``random.Random`` (:func:`derive_generator`): vectorization
reorders RNG consumption, so streams cannot match the reference draw for
draw, and the oracle compares what does not depend on the draws.  The
deterministic builds are *exactly* the reference's tables.

Dispatch is a function of the input, with nothing to configure: a
network's ``build()`` takes the bulk path when its own class defines one,
its id space has fewer than 64 bits, it has more than
:data:`BULK_THRESHOLD` nodes and its family has a bulk form for that input
(deterministic Kademlia/Kandy with ``bucket_size > 1`` has none, and
neither has a Crescendo or Kandy hierarchy whose composite keys exceed 64
bits, :func:`composite_keys_fit`, nor a Chord (Prox.) whose latency picks
would draw from its rng or have no latency table to gather from).  The
scalar construction stays reachable as ``build_reference()``, which the
differential oracle :func:`repro.verify.oracles.compare_builders` holds
every builder here to.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import BULK_THRESHOLD, Edges

__all__ = [
    "BULK_THRESHOLD",
    "canon_merge",
    "composite_keys_fit",
    "contact_depths",
    "crescendo_edges",
    "derive_generator",
    "hierarchy_codes",
    "kandy_edges",
]


def derive_generator(rng) -> np.random.Generator:
    """A numpy ``Generator`` seeded deterministically from ``rng``.

    Bulk builders consume randomness in a different order than the scalar
    reference, so the streams cannot match draw for draw; what matters is
    that the derived generator is a pure function of the caller's RNG state
    (reproducible) and that deriving it *advances* ``rng``, so downstream
    draws differ from a run that never built this network — mirroring the
    reference's consumption.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng.getrandbits(128))


def _as_array(members: Sequence[int]) -> np.ndarray:
    return np.asarray(members, dtype=np.uint64)


# ------------------------------------------------- hierarchy levels as arrays


def hierarchy_codes(hierarchy: Hierarchy, node_ids: Sequence[int]) -> np.ndarray:
    """Per-node integer domain labels, one column per hierarchy level.

    Column ``j`` holds the index of the node's depth-``j + 1`` domain among
    its siblings, counted in the order :meth:`Hierarchy.domains` visits
    them, and ``-1`` past the end of the node's path (paths may differ in
    length).  Equal code prefixes are therefore exactly equal domain-path
    prefixes, and the lexicographic order of code prefixes is the order in
    which ``domains()`` visits each depth's domains.
    """
    labels: Dict[Tuple[str, ...], List[int]] = {(): []}
    for domain in hierarchy.domains():  # parents before children
        prefix = labels[domain.path]
        # domains() stacks the children in insertion order, so it visits
        # the last-inserted child first.
        for index, child in enumerate(reversed(list(domain.children.values()))):
            labels[child.path] = prefix + [index]
    paths = [hierarchy.path_of(node) for node in node_ids]
    depth = max(map(len, paths), default=0)
    row_of: Dict[Tuple[str, ...], int] = {}
    rows = [row_of.setdefault(path, len(row_of)) for path in paths]
    table = [labels[path] + [-1] * (depth - len(path)) for path in row_of]
    codes = np.asarray(table, dtype=np.int32).reshape(len(table), depth)
    return codes[np.asarray(rows, dtype=np.intp)]


def composite_keys_fit(hierarchy: Hierarchy, bits: int) -> bool:
    """Whether every depth's (domain rank, id) keys fit in 64 bits.

    Ranks number a depth's non-empty domains, so ``D`` of them need
    ``log2(D)`` rank bits above the ``bits`` id bits; a hierarchy that does
    not fit has no per-depth bulk form (:func:`_depth_keys`).
    """
    if (len(hierarchy) - 1).bit_length() + bits <= 64:
        return True  # no depth has more non-empty domains than nodes
    counts = Counter(
        domain.depth
        for domain in hierarchy.domains()
        if hierarchy.member_count(domain.path)
    )
    return all((count - 1).bit_length() + bits <= 64 for count in counts.values())


def _depth_ranks(codes: Optional[np.ndarray], n: int) -> List[np.ndarray]:
    """Dense domain ranks per depth, root first.

    ``ranks[d][p]`` numbers node ``p``'s depth-``d`` domain in the
    lexicographic order of its code prefix, and is ``-1`` when ``p``'s path
    is shorter than ``d``.  ``codes`` None is the root ring alone.
    """
    rank = np.zeros(n, dtype=np.int64)
    ranks = [rank]
    for column in () if codes is None else np.asarray(codes).T:
        inside = (column >= 0) & (rank >= 0)
        key = rank[inside] * (int(column.max(initial=0)) + 1) + column[inside]
        rank = np.full(n, -1, dtype=np.int64)
        rank[inside] = np.unique(key, return_inverse=True)[1]
        ranks.append(rank)
    return ranks


def _depth_keys(
    ids: np.ndarray, rank: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One depth's rings as a sorted array of composite keys.

    Returns ``(order, keys, rank)``: the positions (into the sorted
    ``ids``) of the depth's members, ordered by domain rank and then id;
    their keys ``rank << bits | id``, so every ring is a contiguous run
    with ids ascending inside it; and each member's rank.
    """
    members = np.flatnonzero(rank >= 0)
    rank = rank[members]
    top = int(rank.max(initial=0))
    if top.bit_length() + bits > 64:
        raise ValueError(
            f"{top + 1} domains at one depth over a {bits}-bit id space: "
            "composite keys exceed 64 bits"
        )
    keys = (rank.astype(np.uint64) << np.uint64(bits)) | ids[members]
    sort = np.argsort(keys)
    return members[sort], keys[sort], rank[sort]


_POWERS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _bit_length(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each uint64 value, exactly."""
    return np.searchsorted(_POWERS, values, side="right")


def _ranges_concat(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[r], ends[r])`` for every row."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum - counts, counts)
        + np.repeat(starts, counts)
    )


# ----------------------------------------------------------------- Crescendo


def canon_merge(
    ids: np.ndarray, codes: Optional[np.ndarray], space: IdSpace, floor: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Crescendo's rings at depths ``>= floor``, one array pass per depth.

    The Canon construction (paper Section 2) over array form, deepest depth
    first.  A node is in depth ``d``'s ring iff its path has at least ``d``
    labels, and a depth's rings are one sorted array of composite (domain
    rank, id) keys (:func:`_depth_keys`).  A member keeps finger ``k`` iff
    ``2**k`` and the finger's clockwise distance both stay below the
    member's gap — the distance to its successor in its own ring one depth
    down, or the whole space at the depth of its own leaf domain, which
    makes that depth's rule full Chord fingers.  That is conditions
    (a)+(b).  ``ids`` are sorted and distinct; ``codes`` are their
    :func:`hierarchy_codes`.

    Returns ``(src, dst, successors, gap)`` as positions into ``ids``: the
    links, one entry per (depth, link), so a link kept at several depths
    repeats; ``successors[d, p]``, ``p``'s successor in its depth-``d``
    ring (-1 where ``p`` has none or ``d`` was not swept); and each node's
    gap after the shallowest swept ring.
    """
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    n = int(ids.size)
    bits = space.bits
    mask = np.uint64((1 << bits) - 1)
    full = np.uint64(space.size)
    pos_dt = np.uint32 if n < 2**32 else np.int64
    gap = np.full(n, full, dtype=np.uint64)
    ranks = _depth_ranks(codes, n)
    successors = np.full((len(ranks), n), -1, dtype=np.int64)
    src: List[np.ndarray] = [np.zeros(0, dtype=pos_dt)]
    dst: List[np.ndarray] = [np.zeros(0, dtype=pos_dt)]
    for depth in range(len(ranks) - 1, floor - 1, -1):
        order, keys, rank = _depth_keys(ids, ranks[depth], bits)
        m = int(order.size)
        # Each position's ring run [lo, hi) in the composite order.
        starts = np.flatnonzero(np.r_[True, rank[1:] != rank[:-1]])
        sizes = np.diff(np.r_[starts, m])
        lo = np.repeat(starts, sizes)
        hi = lo + np.repeat(sizes, sizes)
        sid = ids[order]
        own_gap = gap[order]
        # The in-ring successor wraps to the ring's start.
        nxt = np.arange(1, m + 1)
        at_end = nxt == hi
        nxt[at_end] = lo[at_end]
        ring_gap = (sid[nxt] - sid) & mask
        ring_gap[hi - lo == 1] = full
        # Every finger 2**k <= ring_gap lands on the in-ring successor,
        # which (b) keeps iff it beats the own-ring gap.  Only the fingers
        # ring_gap < 2**k < own_gap (condition (a)) need a search.
        near = np.flatnonzero(ring_gap < own_gap)
        src.append(order[near].astype(pos_dt))
        dst.append(order[nxt[near]].astype(pos_dt))
        first = _bit_length(ring_gap[near])
        count = np.maximum(_bit_length(own_gap[near] - np.uint64(1)) - first, 0)
        rows = np.repeat(near, count)
        ks = _ranges_concat(first, first + count).astype(np.uint64)
        target = (sid[rows] + (np.uint64(1) << ks)) & mask
        idx = np.searchsorted(keys, (keys[rows] & ~mask) | target)
        wrap = idx == hi[rows]
        idx[wrap] = lo[rows][wrap]
        dist = (sid[idx] - sid[rows]) & mask
        keep = (dist != np.uint64(0)) & (dist < own_gap[rows])
        src.append(order[rows[keep]].astype(pos_dt))
        dst.append(order[idx[keep]].astype(pos_dt))
        # This depth's rings become each member's own ring above.
        gap[order] = ring_gap
        successors[depth, order] = order[nxt]
    return np.concatenate(src), np.concatenate(dst), successors, gap


def crescendo_edges(
    node_ids: Sequence[int], space: IdSpace, hierarchy: Hierarchy, floor: int = 0
) -> Tuple[Edges, Dict[int, int], Dict[int, List[int]]]:
    """Bulk Crescendo rings at depths ``>= floor`` (:func:`canon_merge`).

    Returns ``((src, dst), gap, level_successors)``: the links as position
    arrays for :meth:`~repro.core.network.DHTNetwork._finalize_links`, and
    the side outputs in the reference's form — gap as of the shallowest
    swept ring, successors leaf ring first.
    """
    ids = _as_array(node_ids)
    codes = hierarchy_codes(hierarchy, node_ids)
    src, dst, successors, gap = canon_merge(ids, codes, space, floor)
    chains = ids[successors].T.tolist()  # -1 entries are never read
    leaf_depths = (codes >= 0).sum(axis=1).tolist()
    level_successors = {
        node: chain[floor : leaf + 1][::-1]
        for node, chain, leaf in zip(node_ids, chains, leaf_depths)
    }
    return (src, dst), dict(zip(node_ids, gap.tolist())), level_successors


# ----------------------------------------------------------- Kademlia / Kandy


def _xor_closest_in_ranges(
    arr: np.ndarray,
    x: np.ndarray,
    lo: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    k: np.ndarray,
) -> np.ndarray:
    """Position in ``arr`` of the XOR-closest member to each ``x`` in
    ``arr[i:j)``.

    Every range must be non-empty and lie inside bucket ``k`` (per row) of
    its ``x`` (members agree with ``x`` above bit ``k``, starting at
    ``lo``), so the closest member falls out of a binary-trie descent: at
    each lower bit prefer the half that matches ``x``'s bit when it is
    non-empty.
    """
    ii = i.astype(np.int64)
    jj = j.astype(np.int64)
    pref = lo.astype(np.uint64)
    for b in range(int(k.max(initial=0)) - 1, -1, -1):
        wide = (jj - ii) > 1
        if not wide.any():
            break
        live = wide & (k > b)
        bb = np.uint64(1 << b)
        # All of arr[ii:jj) lies in [pref, pref + 2^(b+1)), so the global
        # insertion point of the half boundary lands inside [ii, jj].
        mid = np.searchsorted(arr, pref | bb).astype(np.int64)
        want_hi = (x & bb) != np.uint64(0)
        go_hi = np.where(want_hi, mid < jj, ~(mid > ii)) & live
        ii = np.where(go_hi, mid, ii)
        jj = np.where(live & ~go_hi, mid, jj)
        pref = np.where(go_hi, pref | bb, pref)
    return ii


def _sample_offsets(
    gen: np.random.Generator, spans: np.ndarray, count: int
) -> List[Set[int]]:
    """Per-row sets of ``count`` distinct offsets in ``[0, spans[row])``.

    Callers guarantee ``spans > count``; rows with duplicate draws simply
    redraw (rejection sampling, identical in distribution to
    ``rng.sample``).
    """
    sets: List[Set[int]] = [set() for _ in range(spans.size)]
    rows = np.arange(spans.size)
    while rows.size:
        draw = gen.integers(0, spans[rows][:, None], size=(rows.size, count))
        short = []
        for row, values in zip(rows.tolist(), draw.tolist()):
            chosen = sets[row]
            for value in values:
                if len(chosen) < count:
                    chosen.add(value)
            if len(chosen) < count:
                short.append(row)
        rows = np.asarray(short, dtype=np.int64)
    return sets


def _resolve_contacts(
    keys: np.ndarray,
    rank: np.ndarray,
    rows: np.ndarray,
    ks: np.ndarray,
    lo: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    gen: Optional[np.random.Generator],
    bucket_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` positions in ``keys`` of one depth's bucket contacts.

    Row ``r`` resolves bucket ``ks[r]`` of member ``rows[r]``: the members
    ``keys[i[r]:j[r])``, starting at ``lo[r]``.  Random draws are made in
    the order a loop over domains would make them — domain (``rank`` of the
    member), then bucket, then member — because ``Generator.integers`` over
    concatenated bounds returns the values of one call per block.
    """
    if gen is None:
        return rows, _xor_closest_in_ranges(keys, keys[rows], lo, i, j, ks)
    order = np.argsort((rank[rows] * 64 + ks) * keys.size + rows)
    rows, ks, i, j = rows[order], ks[order], i[order], j[order]
    spans = j - i
    if bucket_size == 1:
        return rows, i + gen.integers(0, spans)
    full = spans <= bucket_size
    src = [np.repeat(rows[full], spans[full])]
    dst = [_ranges_concat(i[full], j[full])]
    sampled = np.flatnonzero(~full)
    if sampled.size:
        # Rejection sampling redraws within a call, so one call per
        # (domain, bucket) block keeps the per-domain draw sequence.
        r, k = rank[rows[sampled]], ks[sampled]
        cuts = np.flatnonzero((r[1:] != r[:-1]) | (k[1:] != k[:-1])) + 1
        for block in np.split(sampled, cuts):
            chosen = _sample_offsets(gen, spans[block], bucket_size)
            src.append(np.repeat(rows[block], bucket_size))
            offsets = [offset for picks in chosen for offset in picks]
            dst.append(np.repeat(i[block], bucket_size) + np.asarray(offsets))
    return np.concatenate(src), np.concatenate(dst)


def kandy_edges(
    node_ids: Sequence[int],
    space: IdSpace,
    codes: Optional[np.ndarray] = None,
    rng=None,
    bucket_size: int = 1,
) -> Tuple[Edges, np.ndarray]:
    """Bulk Kandy, one pass per depth; with ``codes`` None, flat Kademlia.

    ``node_ids`` are sorted and ``codes`` is their :func:`hierarchy_codes`;
    returns ``((src, dst), contact_at)``: the links as position arrays, and
    ``contact_at[k, p]``, the depth node ``p``'s bucket-``k`` contact comes
    from (-1 for an empty bucket; :func:`contact_depths` turns it into the
    reference's dict).  A depth's rings are one sorted array of composite
    (domain rank, id) keys, so the bucket bounds of every open (member,
    bucket) pair of the depth are two ``searchsorted`` calls.  Depths run
    deepest first, and a pair is resolved at the first depth where its
    bucket is non-empty — the reference's "lowest enclosing domain with a
    non-empty bucket".  Contacts are resolved once per depth
    (:func:`_resolve_contacts`).
    """
    if rng is None and bucket_size != 1:
        raise ValueError("bulk deterministic Kandy supports bucket_size=1 only")
    n = len(node_ids)
    ids = _as_array(node_ids)
    gen = derive_generator(rng) if rng is not None else None
    bits = space.bits
    contact_at = np.full((bits, n), -1, dtype=np.int16)
    src: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    dst: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    ranks = _depth_ranks(codes, n)
    for depth in range(len(ranks) - 1, -1, -1):
        order, keys, rank = _depth_keys(ids, ranks[depth], bits)
        # The XOR-closest ring member is a sorted neighbour, so every bucket
        # below the top bit a member differs from its neighbours in is
        # empty; a member alone in its ring has no bucket (first == bits).
        top = np.where(
            rank[1:] == rank[:-1], _bit_length(keys[1:] ^ keys[:-1]), bits + 1
        )
        first = np.minimum(np.r_[bits + 1, top], np.r_[top, bits + 1]) - 1
        rows = np.repeat(np.arange(order.size), bits - first)
        ks = _ranges_concat(first, np.full(first.size, bits))
        open_ = contact_at[ks, order[rows]] < 0
        rows, ks = rows[open_], ks[open_]
        shift = ks.astype(np.uint64)
        bit = np.uint64(1) << shift
        lo = ((keys[rows] ^ bit) >> shift) << shift
        i = np.searchsorted(keys, lo)
        j = np.searchsorted(keys, lo | (bit - np.uint64(1)), side="right")
        hit = j > i
        rows, ks, lo, i, j = rows[hit], ks[hit], lo[hit], i[hit], j[hit]
        contact_at[ks, order[rows]] = depth
        s, t = _resolve_contacts(keys, rank, rows, ks, lo, i, j, gen, bucket_size)
        src.append(order[s])
        dst.append(order[t])
    return (np.concatenate(src), np.concatenate(dst)), contact_at


def contact_depths(
    node_ids: Sequence[int], contact_at: np.ndarray
) -> Dict[int, Dict[int, int]]:
    """node -> bucket -> contact depth, from :func:`kandy_edges`' matrix."""
    pos, ks = np.nonzero(contact_at.T >= 0)
    depths = contact_at[ks, pos].tolist()
    cuts = np.searchsorted(pos, np.arange(len(node_ids) + 1)).tolist()
    ks = ks.tolist()
    return {
        node: dict(zip(ks[a:b], depths[a:b]))
        for node, a, b in zip(node_ids, cuts, cuts[1:])
    }
