"""Vectorized bulk builders for every DHT family's link-table construction.

The scalar constructions in :mod:`repro.dhts` are the semantic reference:
one node at a time, one draw / binary search at a time.  At the paper's
32K-65K node scales that makes *building* the networks — not routing them —
the dominant cost of every experiment grid.  This module rebuilds each
family's link table in array form:

- Symphony/Cacophony: harmonic inverse-CDF draws in ``(nodes x count)``
  batches with distinct-rejection redraw rounds and one ``searchsorted``
  successor snap per batch (:func:`bulk_harmonic_draws`).
- Kademlia/Kandy: per-bit bucket boundaries for *all* nodes with two
  ``searchsorted`` sweeps, plus a vectorized binary-trie descent for the
  deterministic XOR-closest contact (:func:`_xor_closest_in_ranges`).
- CAN/Can-Can: a neighbor of leaf ``x`` at flipped bit ``p`` is exactly a
  leaf whose interval overlaps ``x``'s sibling interval at depth ``p`` — a
  contiguous range of the padded-id order, so adjacency needs no pairwise
  prefix comparisons at all.
- ND-Chord/ND-Crescendo: annulus member ranges via cyclic successor
  searches, with the ``count == 0`` full-ring/empty disambiguation of
  :func:`repro.dhts.ndchord.annulus_choice` applied vectorially.
- mixed/naive: Chord-style finger matrices per domain (as
  ``crescendo._build_domain_numpy`` already does).

Randomized families draw from a numpy ``Generator`` derived from the
caller's ``random.Random`` (:func:`derive_generator`): vectorization
reorders RNG consumption, so streams cannot match the reference draw for
draw — the bulk output is *distributionally* identical (tested) while the
deterministic families are *exactly* identical (also tested).

Dispatch is a function of the input, with nothing to configure: a
network's ``build()`` takes the bulk path when its id space has fewer than
64 bits, it has more than :data:`BULK_THRESHOLD` nodes (for Crescendo,
per ring) and its family has a bulk form for it (deterministic
Kademlia/Kandy with ``bucket_size > 1`` has none).  The scalar
construction stays reachable as ``build_reference()``, which the
differential oracle :func:`repro.verify.oracles.compare_builders` holds
every builder here to.  :data:`BUILDER_VERSION` is part of every network
cache key (see :mod:`repro.perf.cache`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.hierarchy import Hierarchy
from ..core.idspace import IdSpace
from ..core.network import BULK_THRESHOLD
from ..dhts.symphony import _MAX_DRAWS, _note_short_draws

__all__ = [
    "BUILDER_VERSION",
    "BULK_THRESHOLD",
    "bulk_harmonic_draws",
    "cacophony_link_sets",
    "can_link_sets",
    "cancan_link_sets",
    "derive_generator",
    "hierarchy_codes",
    "kademlia_link_sets",
    "kandy_link_sets",
    "lan_crescendo_link_sets",
    "naive_link_sets",
    "ndchord_link_sets",
    "ndcrescendo_link_sets",
    "stream_compiled_crescendo",
    "stream_crescendo_csr",
    "stream_crescendo_ids",
    "stream_hierarchy_codes",
    "symphony_link_sets",
]

#: Bump whenever any builder's output could change; part of every network
#: cache key in :mod:`repro.experiments.common`.
BUILDER_VERSION = 1


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


def _depth_of(hierarchy: Hierarchy, node_ids: Sequence[int]) -> Dict[int, int]:
    return {node: len(hierarchy.path_of(node)) for node in node_ids}


def _domains_deepest_first(hierarchy: Hierarchy):
    return sorted(hierarchy.domains(), key=lambda d: -d.depth)


# ------------------------------------------------------- Symphony / Cacophony


def bulk_harmonic_draws(
    arr: np.ndarray, count: int, space: IdSpace, gen: np.random.Generator
) -> List[Set[int]]:
    """Per-member sets of up to ``count`` distinct harmonic long links.

    Vectorized :func:`repro.dhts.symphony.draw_long_links` over one ring:
    inverse-CDF distances for a whole batch at once, one ``searchsorted``
    successor snap per round, then distinct-rejection — only rows still
    short of ``count`` distinct non-self links redraw, each within the same
    ``count * _MAX_DRAWS`` attempt budget as the scalar loop.  Rows whose
    budget runs out emit the ``build.symphony.short_draws`` counter.
    """
    n = int(arr.size)
    sets: List[Set[int]] = [set() for _ in range(n)]
    if n < 2 or count <= 0:
        return sets
    size = np.uint64(space.size)
    scale = float(space.size)
    budget = count * _MAX_DRAWS
    rows = np.arange(n)
    spent = 0
    while rows.size and spent < budget:
        cols = min(count, budget - spent)
        u = gen.random((rows.size, cols))
        dist = (np.power(float(n), u - 1.0) * scale).astype(np.uint64)
        np.maximum(dist, np.uint64(1), out=dist)
        targets = (arr[rows][:, None] + dist) % size
        idx = np.searchsorted(arr, targets)
        idx[idx == n] = 0
        snapped = arr[idx].tolist()
        own = arr[rows].tolist()
        short = []
        for row, me, values in zip(rows.tolist(), own, snapped):
            links = sets[row]
            if not links and len(values) == count:
                # Fast path: a full round of all-distinct non-self draws is
                # the whole answer (order among iid draws is irrelevant).
                distinct = set(values)
                distinct.discard(me)
                if len(distinct) == count:
                    sets[row] = distinct
                    continue
            for value in values:
                if value != me and len(links) < count:
                    links.add(value)
            if len(links) < count:
                short.append(row)
        spent += cols
        rows = np.asarray(short, dtype=np.int64)
    if rows.size:
        missing = sum(count - len(sets[row]) for row in rows.tolist())
        if missing > 0:
            _note_short_draws(missing)
    return sets


def symphony_link_sets(
    node_ids: Sequence[int], count: int, space: IdSpace, rng
) -> Dict[int, Set[int]]:
    """Bulk Symphony: harmonic long links plus the successor short link."""
    arr = _as_array(node_ids)
    sets = bulk_harmonic_draws(arr, count, space, derive_generator(rng))
    n = len(node_ids)
    out: Dict[int, Set[int]] = {}
    for pos, node in enumerate(node_ids):
        links = sets[pos]
        links.add(node_ids[(pos + 1) % n])
        out[node] = links
    return out


def cacophony_link_sets(
    node_ids: Sequence[int], space: IdSpace, hierarchy: Hierarchy, rng
) -> Tuple[Dict[int, Set[int]], Dict[int, int]]:
    """Bulk Cacophony: per-domain harmonic draws, gap-filtered at merges."""
    gen = derive_generator(rng)
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    gap = {node: space.size for node in node_ids}
    depth_of = _depth_of(hierarchy, node_ids)
    for domain in _domains_deepest_first(hierarchy):
        members = hierarchy.sorted_members(domain.path)
        if not members:
            continue
        population = len(members)
        count = max(1, int(math.log2(population))) if population > 1 else 0
        arr = _as_array(members)
        drawn = bulk_harmonic_draws(arr, count, space, gen)
        for pos, node in enumerate(members):
            links = drawn[pos]
            if depth_of[node] == domain.depth:
                out[node].update(links)
            else:
                g = gap[node]
                out[node].update(
                    link for link in links if space.ring_distance(node, link) < g
                )
            successor = members[(pos + 1) % population]
            if successor != node:
                out[node].add(successor)
                gap[node] = space.ring_distance(node, successor)
            else:
                gap[node] = space.size
    return out, gap


# ----------------------------------------------------------- Kademlia / Kandy


def _xor_closest_in_ranges(
    arr: np.ndarray,
    x: np.ndarray,
    lo: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    k: int,
) -> np.ndarray:
    """Position in ``arr`` of the XOR-closest member to each ``x`` in
    ``arr[i:j)``.

    Every range must be non-empty and lie inside bucket ``k`` of its ``x``
    (members agree with ``x`` above bit ``k``, starting at ``lo``), so the
    closest member falls out of a binary-trie descent: at each lower bit
    prefer the half that matches ``x``'s bit when it is non-empty.
    """
    ii = i.astype(np.int64)
    jj = j.astype(np.int64)
    pref = lo.astype(np.uint64)
    for b in range(k - 1, -1, -1):
        live = (jj - ii) > 1
        if not live.any():
            break
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


def _bucket_contacts(
    arr: np.ndarray,
    members: Sequence[int],
    act: np.ndarray,
    lo: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    k: int,
    gen: Optional[np.random.Generator],
    bucket_size: int,
    out: Dict[int, Set[int]],
    record,
) -> None:
    """Resolve bucket-``k`` contacts for the rows ``act`` of one ring.

    ``record(node)`` is invoked once per resolved row (Kandy/Can-Can depth
    bookkeeping); contacts land directly in ``out``.
    """
    if gen is None:
        pos = _xor_closest_in_ranges(arr, arr[act], lo[act], i[act], j[act], k)
        for row, p in zip(act.tolist(), pos.tolist()):
            node = members[row]
            out[node].add(members[p])
            record(node)
        return
    spans = j[act] - i[act]
    if bucket_size == 1:
        offs = gen.integers(0, spans)
        picks = i[act] + offs
        for row, p in zip(act.tolist(), picks.tolist()):
            node = members[row]
            out[node].add(members[p])
            record(node)
        return
    full = spans <= bucket_size
    full_rows = act[full]
    if full_rows.size:
        for row, a, b in zip(
            full_rows.tolist(), i[full_rows].tolist(), j[full_rows].tolist()
        ):
            node = members[row]
            out[node].update(members[a:b])
            record(node)
    samp_rows = act[~full]
    if samp_rows.size:
        chosen = _sample_offsets(gen, spans[~full], bucket_size)
        for row, a, offsets in zip(samp_rows.tolist(), i[samp_rows].tolist(), chosen):
            node = members[row]
            out[node].update(members[a + o] for o in offsets)
            record(node)


def _bucket_ranges(
    arr: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, i, j)`` of bucket ``k`` for every member of a sorted ring."""
    kk = np.uint64(k)
    bit = np.uint64(1 << k)
    lo = ((arr ^ bit) >> kk) << kk
    i = np.searchsorted(arr, lo, side="left")
    j = np.searchsorted(arr, lo + bit, side="left")
    return lo, i, j


def kademlia_link_sets(
    node_ids: Sequence[int],
    space: IdSpace,
    rng=None,
    bucket_size: int = 1,
) -> Dict[int, Set[int]]:
    """Bulk Kademlia: per-bit bucket ranges for all nodes at once.

    Supports the deterministic flavour (``rng=None``) for ``bucket_size=1``
    (the XOR-closest contact via trie descent) and the randomized flavour
    for any bucket size; callers fall back to the reference for the
    deterministic multi-contact case.
    """
    if rng is None and bucket_size != 1:
        raise ValueError("bulk deterministic Kademlia supports bucket_size=1 only")
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    if len(node_ids) < 2:
        return out
    arr = _as_array(node_ids)
    gen = derive_generator(rng) if rng is not None else None
    for k in range(space.bits):
        lo, i, j = _bucket_ranges(arr, k)
        act = np.flatnonzero(j > i)
        if act.size:
            _bucket_contacts(
                arr, node_ids, act, lo, i, j, k, gen, bucket_size, out,
                lambda node: None,
            )
    return out


def kandy_link_sets(
    node_ids: Sequence[int],
    space: IdSpace,
    hierarchy: Hierarchy,
    rng=None,
    bucket_size: int = 1,
) -> Tuple[Dict[int, Set[int]], Dict[int, Dict[int, int]]]:
    """Bulk Kandy: per-domain bucket sweeps, deepest domain first.

    Processing domains deepest-first and marking each (node, bucket) pair
    resolved on its first non-empty hit reproduces the reference's "lowest
    enclosing domain with a non-empty bucket" rule without walking ancestor
    chains per node.
    """
    if rng is None and bucket_size != 1:
        raise ValueError("bulk deterministic Kandy supports bucket_size=1 only")
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    contact_depth: Dict[int, Dict[int, int]] = {node: {} for node in node_ids}
    n = len(node_ids)
    if n < 2:
        return out, contact_depth
    garr = _as_array(node_ids)
    gen = derive_generator(rng) if rng is not None else None
    resolved = np.zeros((n, space.bits), dtype=bool)
    for domain in _domains_deepest_first(hierarchy):
        members = hierarchy.sorted_members(domain.path)
        if len(members) < 2:
            continue
        arr = _as_array(members)
        gpos = np.searchsorted(garr, arr)
        depth = len(domain.path)
        for k in range(space.bits):
            lo, i, j = _bucket_ranges(arr, k)
            act = np.flatnonzero((j > i) & ~resolved[gpos, k])
            if act.size == 0:
                continue
            resolved[gpos[act], k] = True

            def record(node, _k=k, _depth=depth):
                contact_depth[node][_k] = _depth

            _bucket_contacts(
                arr, members, act, lo, i, j, k, gen, bucket_size, out, record
            )
    return out, contact_depth


# ---------------------------------------------------------------- CAN family


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


def can_link_sets(
    node_ids: Sequence[int], lengths: Sequence[int], bits: int
) -> Dict[int, Set[int]]:
    """Bulk CAN adjacency over sorted padded prefixes.

    For leaf ``x`` of prefix length ``L``, the neighbors differing at bit
    ``p < L`` are exactly the leaves whose interval overlaps ``x``'s sibling
    interval at depth ``p`` — a contiguous run of the padded order: every
    leaf *starting* inside it, plus possibly the one leaf covering its low
    end from below.  Each undirected edge is discovered from both sides
    (the differing bit is within both prefixes), so one directed insert per
    discovery yields the full symmetric table.
    """
    arr = _as_array(node_ids)
    lens = np.asarray(lengths, dtype=np.uint64)
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    n = arr.size
    if n < 2:
        return out
    one = np.uint64(1)
    width = one << (np.uint64(bits) - lens)
    ends = arr + width
    for p in range(int(lens.max())):
        act = np.flatnonzero(lens > p)
        if act.size == 0:
            break
        flip = one << np.uint64(bits - 1 - p)
        lo = arr[act] ^ flip
        hi = lo + width[act]
        first = np.searchsorted(arr, lo, side="right").astype(np.int64) - 1
        last = np.searchsorted(arr, hi, side="left").astype(np.int64)
        # arr[first] starts at or below lo; include it only if it actually
        # reaches lo (always true when the leaves partition the space).
        covers = (first >= 0) & (ends[np.maximum(first, 0)] > lo)
        first = first + 1 - covers
        counts = last - first
        valid = counts > 0
        srcs = np.repeat(act[valid], counts[valid])
        cands = _ranges_concat(first[valid], last[valid])
        for s, c in zip(srcs.tolist(), cands.tolist()):
            out[node_ids[s]].add(node_ids[c])
    return out


def cancan_link_sets(
    node_ids: Sequence[int],
    lengths: Sequence[int],
    space: IdSpace,
    hierarchy: Hierarchy,
    rng=None,
) -> Tuple[Dict[int, Set[int]], Dict[int, Dict[int, int]]]:
    """Bulk Can-Can: lowest-domain hypercube edge per identifier bit.

    Same interval characterization as :func:`can_link_sets`, restricted to
    each domain's member list: candidates at bit ``p`` are the members
    starting inside the sibling interval, or the single member covering it
    from below (its dyadic interval then contains the whole sibling
    interval, so no other member can overlap).  Deterministic choice is the
    first candidate in member order, exactly as the reference's
    ``options[0]``.
    """
    bits = space.bits
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    edge_depth: Dict[int, Dict[int, int]] = {node: {} for node in node_ids}
    n = len(node_ids)
    if n < 2:
        return out, edge_depth
    garr = _as_array(node_ids)
    glen = dict(zip(node_ids, lengths))
    maxlen = int(max(lengths))
    gen = derive_generator(rng) if rng is not None else None
    one = np.uint64(1)
    resolved = np.zeros((n, maxlen), dtype=bool)
    for domain in _domains_deepest_first(hierarchy):
        members = hierarchy.sorted_members(domain.path)
        if len(members) < 2:
            continue
        arr = _as_array(members)
        lens = np.asarray([glen[m] for m in members], dtype=np.uint64)
        ends = arr + (one << (np.uint64(bits) - lens))
        gpos = np.searchsorted(garr, arr)
        depth = len(domain.path)
        for p in range(int(lens.max())):
            rows = np.flatnonzero((lens > p) & ~resolved[gpos, p])
            if rows.size == 0:
                continue
            flip = one << np.uint64(bits - 1 - p)
            lo = arr[rows] ^ flip
            hi = lo + (one << (np.uint64(bits) - lens[rows]))
            lb = np.searchsorted(arr, lo, side="left").astype(np.int64)
            ub = np.searchsorted(arr, hi, side="left").astype(np.int64)
            pred = lb - 1
            covers = (lb > 0) & (ends[np.maximum(pred, 0)] > lo)
            sel = np.flatnonzero(covers | (ub > lb))
            if sel.size == 0:
                continue
            if gen is None:
                pick = np.where(covers[sel], pred[sel], lb[sel])
            else:
                spans = np.where(covers[sel], 1, ub[sel] - lb[sel])
                pick = np.where(
                    covers[sel], pred[sel], lb[sel] + gen.integers(0, spans)
                )
            resolved[gpos[rows[sel]], p] = True
            for r, c in zip(rows[sel].tolist(), pick.tolist()):
                node = members[r]
                out[node].add(members[c])
                edge_depth[node][p] = depth
    return out, edge_depth


# ------------------------------------------------------- ND-Chord / Crescendo


def _annulus_counts(
    arr: np.ndarray,
    rows: np.ndarray,
    lo: int,
    hi: np.ndarray,
    size: np.uint64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic member ranges ``(start, count)`` of per-row annuli ``[lo, hi)``.

    Mirrors :func:`repro.dhts.ndchord.annulus_choice`: ``count == 0`` is
    disambiguated by testing whether the first candidate actually lies in
    the annulus (then every member does).
    """
    n = int(arr.size)
    base = arr[rows]
    start = np.searchsorted(arr, (base + np.uint64(lo)) % size)
    start[start == n] = 0
    end = np.searchsorted(arr, (base + hi) % size)
    end[end == n] = 0
    count = (end - start) % n
    zero = np.flatnonzero(count == 0)
    if zero.size:
        dist = (arr[start[zero]] - base[zero]) % size
        count[zero] = np.where((dist >= np.uint64(lo)) & (dist < hi[zero]), n, 0)
    return start, count


def ndchord_link_sets(
    node_ids: Sequence[int], space: IdSpace, rng
) -> Dict[int, Set[int]]:
    """Bulk nondeterministic Chord: one random link per distance octave."""
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    n = len(node_ids)
    if n == 0:
        return out
    arr = _as_array(node_ids)
    gen = derive_generator(rng)
    size = np.uint64(space.size)
    if n >= 2:
        rows = np.arange(n)
        for k in range(space.bits):
            lo = 1 << k
            hi = min(1 << (k + 1), space.size)
            if hi <= lo:
                continue
            hi_arr = np.full(n, np.uint64(hi))
            start, count = _annulus_counts(arr, rows, lo, hi_arr, size)
            act = np.flatnonzero(count > 0)
            if act.size == 0:
                continue
            pick = (start[act] + gen.integers(0, count[act])) % n
            good = arr[pick] != arr[act]
            for row, p in zip(act[good].tolist(), pick[good].tolist()):
                out[node_ids[row]].add(node_ids[p])
    for pos, node in enumerate(node_ids):
        successor = node_ids[(pos + 1) % n]
        if successor != node:
            out[node].add(successor)
    return out


def ndcrescendo_link_sets(
    node_ids: Sequence[int], space: IdSpace, hierarchy: Hierarchy, rng
) -> Tuple[Dict[int, Set[int]], Dict[int, int]]:
    """Bulk nondeterministic Crescendo: gap-clipped octaves per domain."""
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    gap = {node: space.size for node in node_ids}
    depth_of = _depth_of(hierarchy, node_ids)
    gen = derive_generator(rng)
    size = np.uint64(space.size)
    for domain in _domains_deepest_first(hierarchy):
        members = hierarchy.sorted_members(domain.path)
        if not members:
            continue
        population = len(members)
        arr = _as_array(members)
        if population >= 2:
            gaps = np.asarray([gap[m] for m in members], dtype=np.uint64)
            leaf = np.asarray(
                [depth_of[m] == domain.depth for m in members], dtype=bool
            )
            for k in range(space.bits):
                lo = 1 << k
                if lo >= space.size:
                    break
                hi = np.uint64(min(1 << (k + 1), space.size))
                hi_eff = np.where(leaf, hi, np.minimum(hi, gaps))
                rows = np.flatnonzero(
                    (leaf | (np.uint64(lo) < gaps)) & (hi_eff > np.uint64(lo))
                )
                if rows.size == 0:
                    continue
                start, count = _annulus_counts(arr, rows, lo, hi_eff[rows], size)
                have = np.flatnonzero(count > 0)
                if have.size == 0:
                    continue
                pick = (start[have] + gen.integers(0, count[have])) % population
                chosen_rows = rows[have]
                good = arr[pick] != arr[chosen_rows]
                for r, p in zip(chosen_rows[good].tolist(), pick[good].tolist()):
                    out[members[r]].add(members[p])
        for pos, node in enumerate(members):
            successor = members[(pos + 1) % population]
            if successor != node:
                new_gap = space.ring_distance(node, successor)
                if depth_of[node] == domain.depth or new_gap < gap[node]:
                    out[node].add(successor)
                gap[node] = new_gap
            else:
                gap[node] = space.size
    return out, gap


# ------------------------------------------------------------- mixed / naive


def _finger_matrix(
    arr: np.ndarray, base: np.ndarray, space: IdSpace
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(succ, dist, ks)`` Chord finger snaps of ``base`` over ring ``arr``."""
    size = np.uint64(space.size)
    ks = np.uint64(1) << np.arange(space.bits, dtype=np.uint64)
    targets = (base[:, None] + ks[None, :]) % size
    idx = np.searchsorted(arr, targets)
    idx[idx == arr.size] = 0
    succ = arr[idx]
    dist = (succ - base[:, None]) % size
    return succ, dist, ks


def lan_crescendo_link_sets(
    node_ids: Sequence[int], space: IdSpace, hierarchy: Hierarchy
) -> Tuple[Dict[int, Set[int]], Dict[int, int]]:
    """Bulk mixed-level network: complete-graph LANs, Crescendo merges."""
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    gap = {node: space.size for node in node_ids}
    depth_of = _depth_of(hierarchy, node_ids)
    for domain in _domains_deepest_first(hierarchy):
        members = hierarchy.sorted_members(domain.path)
        if not members:
            continue
        population = len(members)
        leaf_nodes = [m for m in members if depth_of[m] == domain.depth]
        merge_nodes = [m for m in members if depth_of[m] > domain.depth]
        for node in leaf_nodes:
            out[node].update(members)  # self-link dropped by _finalize_links
        if merge_nodes and population >= 2:
            arr = _as_array(members)
            base = _as_array(merge_nodes)
            gaps = np.asarray([gap[m] for m in merge_nodes], dtype=np.uint64)
            succ, dist, ks = _finger_matrix(arr, base, space)
            keep = (dist != 0) & (dist < gaps[:, None]) & (ks[None, :] < gaps[:, None])
            for row, node in enumerate(merge_nodes):
                out[node].update(succ[row][keep[row]].tolist())
        for pos, node in enumerate(members):
            successor = members[(pos + 1) % population]
            gap[node] = (
                space.ring_distance(node, successor)
                if successor != node
                else space.size
            )
    return out, gap


def naive_link_sets(
    node_ids: Sequence[int], space: IdSpace, hierarchy: Hierarchy
) -> Dict[int, Set[int]]:
    """Bulk naive hierarchical Chord: full fingers in every ancestor ring."""
    out: Dict[int, Set[int]] = {node: set() for node in node_ids}
    for domain in hierarchy.domains():
        members = hierarchy.sorted_members(domain.path)
        if len(members) < 2:
            continue
        arr = _as_array(members)
        succ, _, _ = _finger_matrix(arr, arr, space)
        for node, row in zip(members, succ.tolist()):
            out[node].update(row)  # self-links dropped by _finalize_links
    return out


# ----------------------------------------------------- streaming construction


def hierarchy_codes(hierarchy: Hierarchy, node_ids: Sequence[int]) -> np.ndarray:
    """Per-node integer domain labels, one column per hierarchy level.

    Converts a uniform-depth :class:`Hierarchy` (every node's path has the
    same length, as :func:`repro.core.hierarchy.build_uniform_hierarchy`
    produces) into the dense ``(n, depth)`` code matrix the streaming
    builder consumes: column ``j`` maps level-``j`` labels to consecutive
    integers via a per-level vocabulary, so equal code prefixes correspond
    exactly to equal domain-path prefixes.
    """
    paths = [hierarchy.path_of(node) for node in node_ids]
    depth = len(paths[0]) if paths else 0
    if any(len(p) != depth for p in paths):
        raise ValueError("streaming builder requires a uniform-depth hierarchy")
    codes = np.zeros((len(paths), depth), dtype=np.int32)
    for j in range(depth):
        vocab: Dict[str, int] = {}
        col = codes[:, j]
        for i, path in enumerate(paths):
            col[i] = vocab.setdefault(path[j], len(vocab))
    return codes


def stream_crescendo_ids(
    n: int, rng, bits: int = 32
) -> np.ndarray:
    """``n`` distinct sorted uint64 ids drawn without Python-object nodes.

    The rejection top-up mirrors :meth:`IdSpace.random_ids`' distinctness
    guarantee (not its draw sequence — streaming uses a numpy generator
    derived from ``rng``), then a no-replacement choice removes the
    low-id bias a plain truncation of ``unique`` would introduce.
    """
    gen = derive_generator(rng)
    size = 1 << bits
    if n > size:
        raise ValueError(f"cannot draw {n} distinct ids from a {bits}-bit space")
    draw = int(n + max(16, n // 8))
    uniq = np.unique(gen.integers(0, size, size=draw, dtype=np.uint64))
    while uniq.size < n:
        extra = gen.integers(0, size, size=draw, dtype=np.uint64)
        uniq = np.unique(np.concatenate([uniq, extra]))
    if uniq.size > n:
        uniq = np.sort(gen.choice(uniq, size=n, replace=False))
    return uniq


def stream_hierarchy_codes(
    n: int,
    levels: int,
    gen: np.random.Generator,
    fanout: int = 10,
    zipf_exponent: float = 1.25,
) -> np.ndarray:
    """Vectorized twin of ``build_uniform_hierarchy``'s label draws.

    Each of the ``levels - 1`` columns draws from the same Zipf weight
    vector the scalar placement uses
    (:func:`repro.core.hierarchy.zipf_weights`), via one inverse-CDF
    ``searchsorted`` per level instead of ``n * levels`` scalar scans.
    """
    from ..core.hierarchy import zipf_weights

    depth = max(0, levels - 1)
    codes = np.zeros((n, depth), dtype=np.int32)
    if depth:
        cdf = np.cumsum(np.asarray(zipf_weights(fanout, zipf_exponent)))
        for j in range(depth):
            u = gen.random(n)
            codes[:, j] = np.searchsorted(cdf, u, side="right").astype(np.int32)
        np.minimum(codes, fanout - 1, out=codes)  # guard cdf rounding at 1.0
    return codes


def stream_crescendo_csr(
    ids: np.ndarray, codes: np.ndarray, space: IdSpace
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Crescendo link tables straight to CSR — no per-node Python objects.

    Replays the exact deepest-first Canon construction of
    :meth:`repro.dhts.crescendo.CrescendoNetwork.build` over array form:
    at the leaf depth every domain ring takes full Chord fingers over its
    members; at every shallower depth the per-node merge rule keeps a
    union finger iff its clockwise distance beats the node's own-ring gap
    (conditions (a)+(b), with gaps updated from each depth's rings).  For
    the uniform-depth hierarchies the code matrix encodes, the resulting
    ``(indptr, neighbors, nbr_pos)`` is **identical** to compiling the
    bulk-built network — same per-node sorted neighbor lists — which is
    what lets a 2**20-node grid point skip ~10 GB of Python link tables.

    Work per depth is one composite-key sort plus ``bits`` searchsorted
    sweeps (merge depths stop at the largest relevant finger), so peak
    memory is a handful of length-``n``/``E`` arrays.
    """
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    n = int(ids.size)
    if n == 0:
        raise ValueError("cannot stream an empty network")
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError("ids must be sorted and distinct")
    depth = int(codes.shape[1]) if codes.ndim == 2 else 0
    bits = space.bits
    mask = np.uint64((1 << bits) - 1)
    full = np.uint64(space.size)
    gap = np.full(n, full, dtype=np.uint64)
    srcs: List[np.ndarray] = []
    dsts: List[np.ndarray] = []

    for d in range(depth, -1, -1):
        # Composite sort key: depth-d domain prefix above the id bits, so
        # each domain is a contiguous run with ids ascending inside it.
        if d:
            radices = codes[:, :d].max(axis=0).astype(np.uint64) + np.uint64(1)
            key = np.zeros(n, dtype=np.uint64)
            for j in range(d):
                key = key * radices[j] + codes[:, j].astype(np.uint64)
            key_span = int(np.prod(radices))
            if key_span.bit_length() + bits > 64:
                raise ValueError(
                    f"domain keys need {key_span.bit_length()} bits over a "
                    f"{bits}-bit id space; composite keys exceed 64 bits"
                )
            comp = (key << np.uint64(bits)) | ids
            order = np.argsort(comp, kind="stable")
            comp = comp[order]
        else:
            key = None
            order = np.arange(n, dtype=np.int64)
            comp = ids
        sid = ids[order]
        # Per-position segment bounds [lo, hi) of each node's domain run.
        if key is not None:
            ksorted = key[order]
            bound = np.flatnonzero(ksorted[1:] != ksorted[:-1]) + 1
            starts = np.concatenate([[0], bound])
            ends = np.concatenate([bound, [n]])
            seg_of = np.searchsorted(starts, np.arange(n), side="right") - 1
            lo = starts[seg_of]
            hi = ends[seg_of]
        else:
            lo = np.zeros(n, dtype=np.int64)
            hi = np.full(n, n, dtype=np.int64)
        leaf = d == depth
        if leaf:
            kmax = bits
            active = np.arange(n, dtype=np.int64)
        else:
            gs = gap[order]
            # Condition (a) caps useful fingers at 2**k < gap.
            max_gap = int(gs.max())
            kmax = min(bits, max(max_gap - 1, 1).bit_length())
            active = np.flatnonzero(gs > np.uint64(1))
        prefix = comp & ~mask
        for k in range(kmax):
            if not leaf:
                act = active[gap[order[active]] > np.uint64(1 << k)]
                if act.size == 0:
                    break
            else:
                act = active
            target = (sid[act] + np.uint64(1 << k)) & mask
            idx = np.searchsorted(comp, prefix[act] | target, side="left")
            wrap = idx == hi[act]
            idx[wrap] = lo[act][wrap]
            dist = (sid[idx] - sid[act]) & mask
            keep = dist != np.uint64(0)
            if not leaf:
                keep &= dist < gap[order[act]]
            kept = act[keep]
            if kept.size:
                srcs.append(order[kept].astype(np.uint32))
                dsts.append(order[idx[keep]].astype(np.uint32))
        # This depth's rings become each member's own ring for the merges
        # above: gap = clockwise distance to the in-segment successor
        # (wrapping to the segment start), or the whole space when alone.
        nxt = np.arange(1, n + 1, dtype=np.int64)
        at_end = nxt == hi
        nxt[at_end] = lo[at_end]
        ring_gap = (sid[nxt] - sid) & mask
        single = hi - lo == 1
        ring_gap[single] = full
        gap[order] = ring_gap

    if srcs:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        edge = src.astype(np.uint64) * np.uint64(n) + dst.astype(np.uint64)
        edge = np.unique(edge)
        src = (edge // np.uint64(n)).astype(np.int64)
        dst = edge % np.uint64(n)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.uint64)
    counts = np.bincount(src, minlength=n)
    idx_dt = np.int32 if n < 2**31 and int(dst.size) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx_dt)
    np.cumsum(counts, out=indptr[1:])
    neighbors = ids[dst.astype(np.int64)]
    nbr_pos = dst.astype(idx_dt)
    return indptr, neighbors, nbr_pos


def stream_compiled_crescendo(
    size: int,
    levels: int,
    rng,
    space: Optional[IdSpace] = None,
    fanout: int = 10,
    zipf_exponent: float = 1.25,
):
    """Build a population directly into compiled CSR form.

    Returns ``(compiled, top_codes)``: a routable
    :class:`~repro.perf.kernels.CompiledNetwork` (``network`` is ``None``
    — no Python node/link objects ever exist) plus the per-position
    top-level-domain code column for crossing counts.  Ids and hierarchy
    labels come from a generator derived from ``rng``, so populations are
    reproducible per seed token (they are *not* draw-for-draw identical
    to the scalar placement; equivalence to the object path is asserted
    structurally by the oracle test, on shared ids/codes).
    """
    from .kernels import CompiledNetwork

    space = space or IdSpace()
    ids = stream_crescendo_ids(size, rng, bits=space.bits)
    gen = derive_generator(rng)
    codes = stream_hierarchy_codes(
        size, levels, gen, fanout=fanout, zipf_exponent=zipf_exponent
    )
    indptr, neighbors, nbr_pos = stream_crescendo_csr(ids, codes, space)
    compiled = CompiledNetwork.from_arrays(
        metric="ring",
        bits=space.bits,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=nbr_pos,
    )
    top = (
        codes[:, 0].copy()
        if codes.ndim == 2 and codes.shape[1]
        else np.full(size, -1, dtype=np.int32)
    )
    return compiled, top
