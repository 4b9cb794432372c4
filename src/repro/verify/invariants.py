"""Per-family structural invariant checkers in a single registry.

Every checker takes a built :class:`~repro.core.network.DHTNetwork` and
yields :class:`~repro.verify.violations.Violation` records.  Checkers are
registered against the ``family`` tags declared by the network classes, so
:func:`run_checks` picks the applicable set automatically; ``"*"`` applies
to every family.

The checks encode the constructions' defining properties:

- ring families link their ring successor (per ancestor level for the
  Canon versions — greedy clockwise routing's progress guarantee);
- Chord/Crescendo/LanCrescendo finger tables are recomputed exactly from
  the Canon merge rule — condition (a): each merge link is the closest
  union-ring node at least ``2**k`` away, and condition (b): it is closer
  than every node of the node's own lower ring;
- Kademlia/Kandy cover every globally non-empty XOR bucket, Kandy from the
  lowest enclosing domain with a non-empty bucket;
- CAN/Can-Can zones exactly tile the identifier space and every identifier
  bit of a zone prefix is covered by a hypercube edge.

When a :mod:`repro.obs.metrics` registry is active, ``verify.checks`` and
``verify.violations`` count checker runs and findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Set

import numpy as np

from ..core.hierarchy import lca_depth
from ..core.idspace import predecessor_index, successor_index
from ..core.network import DHTNetwork
from ..dhts.chord import finger_links
from ..dhts.kademlia import bucket_members_range
from ..obs import metrics as obs_metrics
from ..serve.batcher import FREE
from .violations import InvariantViolationError, Violation

CheckFn = Callable[[DHTNetwork], Iterator[Violation]]


@dataclass(frozen=True)
class Checker:
    name: str
    families: object  # tuple of family tags, or "*" for every family
    fn: CheckFn

    def applies_to(self, family: str) -> bool:
        """Whether this checker covers the given family tag."""
        return self.families == "*" or family in self.families


_CHECKERS: List[Checker] = []


def register(name: str, families) -> Callable[[CheckFn], CheckFn]:
    """Class decorator-style registration of one invariant checker."""

    def deco(fn: CheckFn) -> CheckFn:
        _CHECKERS.append(Checker(name, families, fn))
        return fn

    return deco


def all_checkers() -> List[Checker]:
    """Every registered checker, in registration order."""
    return list(_CHECKERS)


def checkers_for(family: str) -> List[Checker]:
    """The registered checkers applicable to one family tag."""
    return [c for c in _CHECKERS if c.applies_to(family)]


def run_checks(
    network: DHTNetwork,
    checks: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
) -> List[Violation]:
    """Run every applicable checker; return all violations found.

    ``checks`` restricts to a subset of checker names; ``fail_fast`` stops
    at the first violation.  Increments ``verify.checks`` per checker run
    and ``verify.violations`` per finding when metrics are collecting.
    """
    family = getattr(network, "family", "network")
    registry = obs_metrics.active_registry()
    out: List[Violation] = []
    for checker in checkers_for(family):
        if checks is not None and checker.name not in checks:
            continue
        if registry is not None:
            registry.counter("verify.checks").inc()
        for violation in checker.fn(network):
            out.append(violation)
            if registry is not None:
                registry.counter("verify.violations").inc()
            if fail_fast:
                return out
    return out


def verify_network(
    network: DHTNetwork, checks: Optional[Sequence[str]] = None
) -> None:
    """Raise :class:`InvariantViolationError` if any check fails."""
    violations = run_checks(network, checks=checks)
    if violations:
        raise InvariantViolationError(violations)


# ------------------------------------------------------------- auto-verify

_AUTO_VERIFY = False


def set_auto_verify(enabled: bool) -> None:
    """Toggle post-build verification inside the experiment helpers."""
    global _AUTO_VERIFY
    _AUTO_VERIFY = bool(enabled)


def auto_verify_enabled() -> bool:
    """Whether :func:`maybe_verify` currently verifies."""
    return _AUTO_VERIFY


def maybe_verify(network: DHTNetwork) -> None:
    """Verify ``network`` when auto-verification is on (CLI ``--verify``)."""
    if _AUTO_VERIFY:
        verify_network(network)


# ----------------------------------------------------------------- helpers


def _v(check: str, network: DHTNetwork, message: str, **kw) -> Violation:
    return Violation(
        check=check,
        family=getattr(network, "family", "network"),
        message=message,
        **kw,
    )


def _cyclic_successor(members: Sequence[int], node: int, space) -> int:
    """The next member clockwise after ``node`` (``node`` itself if alone)."""
    return members[successor_index(members, space.add(node, 1))]


def _succ_distance(members: Sequence[int], node: int, space) -> int:
    """Clockwise distance to the next member; the full ring size if alone."""
    succ = _cyclic_successor(members, node, space)
    return space.ring_distance(node, succ) if succ != node else space.size


def _ancestor_rings(network: DHTNetwork, node: int):
    """(depth, domain path, sorted members) from the leaf ring to the root."""
    for path in network.hierarchy.ancestor_chain(node):
        yield len(path), path, network.hierarchy.sorted_members(path)


# ----------------------------------------------------- generic link hygiene


@register("links-valid", "*")
def check_links_valid(network: DHTNetwork) -> Iterator[Violation]:
    """Link targets exist, no self-links, lists strictly sorted."""
    for node, link, reason in network.iter_link_violations():
        yield _v("links-valid", network, reason, node=node, link=link)


# ------------------------------------------------------------ ring closure

_FLAT_RING = ("chord", "symphony", "ndchord")
_CANON_RING = ("crescendo", "cacophony", "ndcrescendo", "mixed", "naive")


@register("ring-successor", _FLAT_RING)
def check_ring_successor(network: DHTNetwork) -> Iterator[Violation]:
    """Every node links its global ring successor (greedy progress)."""
    ids = network.node_ids
    if len(ids) < 2:
        return
    space = network.space
    for pos, node in enumerate(ids):
        succ = ids[(pos + 1) % len(ids)]
        if succ not in network.links[node]:
            yield _v(
                "ring-successor",
                network,
                f"missing ring successor {succ}",
                node=node,
                link=succ,
                level=0,
            )


@register("ring-level-successor", _CANON_RING)
def check_ring_level_successor(network: DHTNetwork) -> Iterator[Violation]:
    """Every node links its ring successor at *each* ancestor level."""
    space = network.space
    for node in network.node_ids:
        links = network.links[node]
        for depth, path, members in _ancestor_rings(network, node):
            if len(members) < 2:
                continue
            succ = _cyclic_successor(members, node, space)
            if succ not in links:
                yield _v(
                    "ring-level-successor",
                    network,
                    f"missing level-{depth} ring successor {succ}",
                    node=node,
                    link=succ,
                    level=depth,
                    domain=path,
                )


# ---------------------------------------------------------- finger tables


@register("chord-fingers", ("chord",))
def check_chord_fingers(network: DHTNetwork) -> Iterator[Violation]:
    """The link table is exactly the Chord finger definition."""
    ids = network.node_ids
    for node in ids:
        expected = finger_links(node, ids, network.space)
        actual = set(network.links[node])
        for missing in sorted(expected - actual):
            yield _v(
                "chord-fingers",
                network,
                f"missing finger {missing}",
                node=node,
                link=missing,
            )
        for extra in sorted(actual - expected):
            yield _v(
                "chord-fingers",
                network,
                f"link {extra} is not the closest node >= 2**k away for any k",
                node=node,
                link=extra,
            )


@register("naive-fingers", ("naive",))
def check_naive_fingers(network: DHTNetwork) -> Iterator[Violation]:
    """Full Chord fingers at every hierarchy level, nothing else."""
    space = network.space
    for node in network.node_ids:
        expected: Set[int] = set()
        for depth, path, members in _ancestor_rings(network, node):
            if len(members) >= 2:
                expected |= finger_links(node, members, space)
        actual = set(network.links[node])
        for missing in sorted(expected - actual):
            yield _v(
                "naive-fingers",
                network,
                f"missing per-level finger {missing}",
                node=node,
                link=missing,
            )
        for extra in sorted(actual - expected):
            yield _v(
                "naive-fingers",
                network,
                f"link {extra} is not a finger at any level",
                node=node,
                link=extra,
            )


# ------------------------------------------------------- Canon merge rules


def _expected_canon_links(network: DHTNetwork, node: int, leaf_lan: bool) -> Set[int]:
    """Recompute a Crescendo/LanCrescendo node's links from the merge rule.

    Leaf ring: full Chord fingers within the leaf domain (or the complete
    LAN graph for the mixed network).  Each merge, from the leaf's parent
    up to the root, adds union-ring fingers strictly inside the node's
    own-ring gap (Canon conditions (a) + (b)); the gap then becomes the
    successor distance in the merged ring.
    """
    space = network.space
    hierarchy = network.hierarchy
    chain = hierarchy.ancestor_chain(node)  # leaf domain first
    leaf_members = hierarchy.sorted_members(chain[0])
    expected: Set[int] = set()
    if leaf_lan:
        expected.update(m for m in leaf_members if m != node)
    else:
        expected |= finger_links(node, leaf_members, space)
    gap = _succ_distance(leaf_members, node, space)
    for path in chain[1:]:
        members = hierarchy.sorted_members(path)
        k = 0
        while (1 << k) < gap and k < space.bits:
            target = space.add(node, 1 << k)
            succ = members[successor_index(members, target)]
            if succ != node and space.ring_distance(node, succ) < gap:
                expected.add(succ)
            k += 1
        gap = _succ_distance(members, node, space)
    return expected


def _check_canon_merge(network: DHTNetwork, leaf_lan: bool) -> Iterator[Violation]:
    hierarchy = network.hierarchy
    for node in network.node_ids:
        expected = _expected_canon_links(network, node, leaf_lan)
        actual = set(network.links[node])
        path = hierarchy.path_of(node)
        for missing in sorted(expected - actual):
            yield _v(
                "canon-merge",
                network,
                f"missing merge link {missing} required by condition (a)",
                node=node,
                link=missing,
                level=lca_depth(path, hierarchy.path_of(missing)),
            )
        for extra in sorted(actual - expected):
            if extra == node or extra not in network:
                continue  # links-valid reports self/foreign targets
            level = lca_depth(path, hierarchy.path_of(extra))
            yield _v(
                "canon-merge",
                network,
                f"link {extra} violates the merge rule "
                f"(not a condition (a)+(b) finger at its level)",
                node=node,
                link=extra,
                level=level,
            )


@register("canon-merge", ("crescendo",))
def check_crescendo_merge(network: DHTNetwork) -> Iterator[Violation]:
    """Crescendo tables equal the Canon merge recomputation exactly."""
    return _check_canon_merge(network, leaf_lan=False)


@register("canon-merge", ("mixed",))
def check_lan_crescendo_merge(network: DHTNetwork) -> Iterator[Violation]:
    """LanCrescendo: complete LAN leaves + exact Canon merges above."""
    return _check_canon_merge(network, leaf_lan=True)


@register("canon-condition-b", ("crescendo", "cacophony", "ndcrescendo", "mixed"))
def check_canon_condition_b(network: DHTNetwork) -> Iterator[Violation]:
    """Condition (b): merge links are closer than any own-ring node.

    For every link whose LCA level ``l`` is above the node's leaf domain,
    the clockwise distance must be strictly smaller than the node's
    successor distance within its depth-``l+1`` ancestor domain — the
    economy that distinguishes Canon constructions from the naive one.
    """
    space = network.space
    hierarchy = network.hierarchy
    for node in network.node_ids:
        path = hierarchy.path_of(node)
        leaf_depth = len(path)
        for link in network.links[node]:
            if link == node or link not in network:
                continue  # links-valid reports self/foreign targets
            level = lca_depth(path, hierarchy.path_of(link))
            if level >= leaf_depth:
                continue  # same leaf domain: no lower ring to bound it
            own_ring = hierarchy.sorted_members(path[: level + 1])
            bound = _succ_distance(own_ring, node, space)
            dist = space.ring_distance(node, link)
            if dist >= bound:
                yield _v(
                    "canon-condition-b",
                    network,
                    f"merge link {link} at distance {dist} is not closer "
                    f"than the own-ring successor (distance {bound})",
                    node=node,
                    link=link,
                    level=level,
                    domain=path[:level],
                )


@register("canon-condition-a", ("crescendo", "mixed"))
def check_canon_condition_a(network: DHTNetwork) -> Iterator[Violation]:
    """Condition (a): each merge link is the closest union-ring node >= 2**k.

    Equivalently: with ``p`` the link's cyclic predecessor among the merged
    ring's members, some power of two lands in ``(dist(p), dist(link)]``.
    """
    space = network.space
    hierarchy = network.hierarchy
    for node in network.node_ids:
        path = hierarchy.path_of(node)
        leaf_depth = len(path)
        for link in network.links[node]:
            if link == node or link not in network:
                continue  # links-valid reports self/foreign targets
            level = lca_depth(path, hierarchy.path_of(link))
            if level >= leaf_depth:
                continue
            members = hierarchy.sorted_members(path[:level])
            dist = space.ring_distance(node, link)
            pred = members[predecessor_index(members, space.add(link, -1))]
            pdist = space.ring_distance(node, pred)
            # The largest 2**k <= dist must clear the predecessor, else no
            # finger target node + 2**k selects this link.
            if not (1 << (dist.bit_length() - 1)) > pdist:
                yield _v(
                    "canon-condition-a",
                    network,
                    f"link {link} (distance {dist}) is not the successor of "
                    f"node + 2**k for any k (predecessor at distance {pdist})",
                    node=node,
                    link=link,
                    level=level,
                    domain=path[:level],
                )


# -------------------------------------------------------- XOR bucket rules


def _bucket_of(space, node: int, link: int) -> int:
    return space.xor_distance(node, link).bit_length() - 1


@register("bucket-coverage", ("kademlia", "kandy"))
def check_bucket_coverage(network: DHTNetwork) -> Iterator[Violation]:
    """Every globally non-empty XOR bucket holds at least one contact."""
    space = network.space
    ids = network.node_ids
    for node in ids:
        covered = {
            _bucket_of(space, node, link)
            for link in network.links[node]
            if link != node and link in network
        }
        for k in range(space.bits):
            if k in covered:
                continue
            i, j = bucket_members_range(node, k, ids, space)
            if j > i:
                yield _v(
                    "bucket-coverage",
                    network,
                    f"bucket {k} has {j - i} member(s) but no contact",
                    node=node,
                    level=k,
                )


@register("kandy-lowest-domain", ("kandy",))
def check_kandy_lowest_domain(network: DHTNetwork) -> Iterator[Violation]:
    """Each contact comes from the lowest domain with a non-empty bucket."""
    space = network.space
    hierarchy = network.hierarchy
    for node in network.node_ids:
        chain = hierarchy.ancestor_chain(node)  # leaf domain first
        for link in network.links[node]:
            if link == node or link not in network:
                continue  # links-valid reports self/foreign targets
            k = _bucket_of(space, node, link)
            for path in chain:
                members = hierarchy.sorted_members(path)
                i, j = bucket_members_range(node, k, members, space)
                if i == j:
                    continue
                if hierarchy.path_of(link)[: len(path)] != path:
                    yield _v(
                        "kandy-lowest-domain",
                        network,
                        f"bucket-{k} contact {link} lies outside the lowest "
                        f"enclosing domain with a non-empty bucket",
                        node=node,
                        link=link,
                        level=len(path),
                        domain=path,
                    )
                break


# -------------------------------------------------------- CAN zone algebra


@register("can-partition", ("can", "cancan"))
def check_can_partition(network: DHTNetwork) -> Iterator[Violation]:
    """Zone prefixes exactly tile the identifier space, ids are padded."""
    bits = network.space.bits
    prefixes = network.prefixes
    cursor = 0
    for node in network.node_ids:  # sorted ascending == interval order
        prefix = prefixes[node]
        lo, hi = prefix.interval(bits)
        if node != prefix.padded(bits):
            yield _v(
                "can-partition",
                network,
                f"node id is not the padded value of its prefix {prefix}",
                node=node,
            )
        if lo != cursor:
            kind = "overlaps" if lo < cursor else "leaves a gap before"
            yield _v(
                "can-partition",
                network,
                f"zone [{lo}, {hi}) {kind} offset {cursor}",
                node=node,
            )
        cursor = max(cursor, hi)
    if cursor != network.space.size:
        yield _v(
            "can-partition",
            network,
            f"zones cover [0, {cursor}) of [0, {network.space.size})",
        )


@register("can-links", ("can", "cancan"))
def check_can_links(network: DHTNetwork) -> Iterator[Violation]:
    """Links are hypercube edges; every prefix bit has a covering edge."""
    from ..dhts.cancan import differing_bit

    prefixes = network.prefixes
    for node in network.node_ids:
        prefix = prefixes[node]
        covered: Set[int] = set()
        for link in network.links[node]:
            if link not in prefixes:
                continue  # links-valid reports foreign targets
            bit = differing_bit(prefix, prefixes[link])
            if bit is None:
                yield _v(
                    "can-links",
                    network,
                    f"link {link} is not hypercube-adjacent",
                    node=node,
                    link=link,
                )
            else:
                covered.add(bit)
        for bit in range(prefix.length):
            if bit not in covered:
                yield _v(
                    "can-links",
                    network,
                    f"no edge covers identifier bit {bit}",
                    node=node,
                    level=bit,
                )


@register("can-adjacency-complete", ("can",))
def check_can_adjacency_complete(network: DHTNetwork) -> Iterator[Violation]:
    """Flat CAN links *all* adjacent zones (ground-truth hypercube)."""
    from ..dhts.can import are_adjacent

    ids = network.node_ids
    prefixes = network.prefixes
    for i, a in enumerate(ids):
        pa = prefixes[a]
        links_a = set(network.links[a])
        for b in ids[i + 1 :]:
            if are_adjacent(pa, prefixes[b]):
                if b not in links_a:
                    yield _v(
                        "can-adjacency-complete",
                        network,
                        f"adjacent zone {b} is not linked",
                        node=a,
                        link=b,
                    )
                if a not in network.links[b]:
                    yield _v(
                        "can-adjacency-complete",
                        network,
                        f"adjacent zone {a} is not linked",
                        node=b,
                        link=a,
                    )


# ------------------------------------------------------------- LAN leaves


@register("lan-complete", ("mixed",))
def check_lan_complete(network: DHTNetwork) -> Iterator[Violation]:
    """Leaf domains form complete graphs (one-hop LAN routing)."""
    hierarchy = network.hierarchy
    for domain in hierarchy.leaf_domains():
        members = hierarchy.sorted_members(domain.path)
        member_set = set(members)
        for node in members:
            # Only nodes whose *leaf* domain this is participate in the LAN.
            if hierarchy.path_of(node) != domain.path:
                continue
            missing = member_set - set(network.links[node]) - {node}
            for peer in sorted(missing):
                if hierarchy.path_of(peer) != domain.path:
                    continue
                yield _v(
                    "lan-complete",
                    network,
                    f"LAN peer {peer} is not linked",
                    node=node,
                    link=peer,
                    level=domain.depth,
                    domain=domain.path,
                )


# ---------------------------------------------------------- serving state


def check_serving_state(runtime) -> List[Violation]:
    """The slot table of a :class:`~repro.serve.runtime.ServeRuntime`
    against its completion log, in any state between two calls:

    - the free list has no duplicates and is exactly the FREE slots;
    - every other slot holds a ticket in ``[0, submitted)`` that the log
      has not completed;
    - a ticket held by two slots is a hedge pair (mutual ``twin`` links,
      exactly one ``is_hedge``), and none is held by three;
    - the log completes no ticket twice;
    - ``submitted`` is the log's rows plus the distinct held tickets, and
      ``completed`` is the log's rows.
    """
    b = runtime.batcher
    counters = runtime.counters
    out: List[Violation] = []

    def fail(check: str, message: str, where: Optional[np.ndarray] = None) -> None:
        if where is not None:
            message += f": {where[:5].tolist()}" + (" ..." if where.size > 5 else "")
        out.append(Violation(check=f"serve-{check}", family="serve", message=message))

    free = np.asarray(b._free, dtype=np.int64)
    listed, copies = np.unique(free, return_counts=True)
    if np.any(copies > 1):
        fail("free-list", "slots listed free twice", listed[copies > 1])
    free_state = np.flatnonzero(b.state == FREE)
    stray = np.setxor1d(listed, free_state)
    if stray.size:
        fail("free-list", "free list and FREE states disagree at slots", stray)

    held = np.flatnonzero(b.state != FREE)
    tickets = b.ticket[held]
    bad = held[(tickets < 0) | (tickets >= counters["submitted"])]
    if bad.size:
        fail("held-ticket", "slots hold a ticket never issued", bad)
    logged = np.concatenate(
        [batch.tickets for batch in runtime.log] or [np.zeros(0, np.int64)]
    )
    done, twice = np.unique(logged, return_counts=True)
    if np.any(twice > 1):
        fail("log", "tickets completed more than once", done[twice > 1])
    bad = held[np.isin(tickets, done)]
    if bad.size:
        fail("held-ticket", "slots hold a completed ticket", bad)

    order = np.argsort(tickets, kind="stable")
    slots = held[order]
    distinct, first, runners = np.unique(
        tickets[order], return_index=True, return_counts=True
    )
    if np.any(runners > 2):
        fail("hedge-pair", "tickets held by 3+ slots", distinct[runners > 2])
    pair = first[runners == 2]
    one, two = slots[pair], slots[pair + 1]
    broken = (
        (b.twin[one] != two)
        | (b.twin[two] != one)
        | (b.is_hedge[one] == b.is_hedge[two])
    )
    if np.any(broken):
        fail("hedge-pair", "slots share a ticket but are no hedge pair", one[broken])

    if counters["submitted"] != logged.size + distinct.size:
        fail(
            "accounting",
            f"{counters['submitted']} submitted but {logged.size} completed "
            f"+ {distinct.size} held",
        )
    if counters["completed"] != logged.size:
        fail(
            "accounting",
            f"{counters['completed']} counted complete, {logged.size} logged",
        )
    return out


def verify_serving_state(runtime) -> None:
    """Raise :class:`InvariantViolationError` if
    :func:`check_serving_state` finds anything."""
    violations = check_serving_state(runtime)
    if violations:
        raise InvariantViolationError(violations)
