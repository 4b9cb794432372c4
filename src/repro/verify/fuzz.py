"""Seeded churn fuzzing: generate, replay, verify, shrink.

The fuzzer derives a deterministic join/leave/crash/lookup schedule from a
seed and replays it on both maintenance engines through :func:`lockstep`,
which the scenario zoo's runner shares.  On the fast engine every
quiescent checkpoint (a) checks the live protocol state — ring successor
correctness and leaf-set symmetry at every level — and (b) rebuilds each
requested static family over the current live membership and runs the
invariant registry plus a scalar-vs-batch routing differential on it
(:func:`static_checks`).  The reference engine checks (a) at its own
checkpoints, and the two replays must then agree on everything
:func:`repro.verify.oracles.compare_replays` compares.

Failing schedules shrink toward a minimal counterexample with a greedy
delta-debugging pass over the event list; the result serializes to JSON
so counterexamples can be checked in as regression fixtures and replayed
with ``python -m repro.verify replay``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.hierarchy import DomainPath, Hierarchy
from ..core.idspace import IdSpace
from ..core.network import DHTNetwork
from ..perf.latency import LatencyTable
from ..simulation.churn import Event, ScheduleReport, run_schedule
from ..simulation.protocol import SimulatedCrescendo
from .builders import FAMILIES, PREFIX_FAMILIES, build_family
from .invariants import run_checks
from .mutate import corrupt
from .oracles import (
    DurabilityMonitor,
    ProtocolComparison,
    check_durability,
    compare_replays,
    compare_routing,
)
from .violations import Violation

#: Leaf domains of the fuzz hierarchy (two levels, 3 x 2).
FUZZ_PATHS: Tuple[DomainPath, ...] = tuple(
    (top, leaf) for top in ("a", "b", "c") for leaf in ("x", "y")
)

#: Event mix for schedule generation (lookups dominate, like real traffic).
DEFAULT_WEIGHTS: Dict[str, float] = {
    "join": 0.18,
    "leave": 0.10,
    "crash": 0.07,
    "lookup": 0.60,
    "stabilize": 0.05,
}

#: Extra event mix when a data layer rides the schedule
#: (``FuzzConfig.data_replicas``); kept out of :data:`DEFAULT_WEIGHTS` so
#: schedules generated without a layer stay byte-identical to older seeds.
DATA_WEIGHTS: Dict[str, float] = {
    "put": 0.08,
    "get": 0.12,
}


@dataclass
class FuzzConfig:
    """Everything one fuzz run derives from (all replay-relevant state)."""

    seed: int = 0
    events: int = 500
    families: Sequence[str] = FAMILIES
    population: int = 64
    checkpoints: int = 8
    bits: int = 32
    mutate_family: Optional[str] = None
    mutate_kind: str = "drop"
    routing_pairs: int = 32
    #: replication degree of the data layer riding the schedule, or None
    #: for a bare network.  When set, the schedule gains ``put``/``get``
    #: events, each engine in the :func:`lockstep` carries a data layer
    #: plus a :class:`~repro.verify.oracles.DurabilityMonitor`, and every
    #: checkpoint runs :func:`~repro.verify.oracles.check_durability`.
    data_replicas: Optional[int] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (plus the shrunk schedule on failure)."""

    config: FuzzConfig
    schedule: List[Event]
    replay: ScheduleReport
    violations: List[Violation] = field(default_factory=list)
    shrunk: Optional[List[Event]] = None
    shrink_replays: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.violations)


# ------------------------------------------------------ schedule generation


def generate_schedule(config: FuzzConfig) -> List[Event]:
    """Derive a deterministic event list from the seed.

    All randomness is consumed *here*; the resulting events carry concrete
    ids, keys and live-list ranks, so replaying (or any sub-list of it,
    during shrinking) never touches an RNG.
    """
    rng = random.Random(f"fuzz-schedule:{config.seed}")
    space = IdSpace(config.bits)
    mix = dict(DEFAULT_WEIGHTS)
    if config.data_replicas is not None:
        mix.update(DATA_WEIGHTS)
    kinds = list(mix)
    weights = [mix[k] for k in kinds]
    used_ids = set()
    put_keys: List[int] = []
    events: List[Event] = []
    for _ in range(config.events):
        kind = rng.choices(kinds, weights)[0]
        if kind == "join":
            node = space.random_id(rng)
            while node in used_ids:
                node = space.random_id(rng)
            used_ids.add(node)
            path = FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))]
            events.append(Event("join", node=node, path=path))
        elif kind in ("leave", "crash"):
            events.append(Event(kind, rank=rng.randrange(1 << 30)))
        elif kind == "lookup":
            events.append(
                Event(
                    "lookup",
                    rank=rng.randrange(1 << 30),
                    key=space.random_id(rng),
                )
            )
        elif kind == "put":
            token = rng.randrange(1 << 30)
            put_keys.append(token)
            events.append(
                Event(
                    "put",
                    rank=rng.randrange(1 << 30),
                    key=token,
                    depth=rng.randrange(3),
                )
            )
        elif kind == "get":
            # Mostly re-read stored keys; some misses keep the path honest.
            if put_keys and rng.random() < 0.8:
                token = put_keys[rng.randrange(len(put_keys))]
            else:
                token = rng.randrange(1 << 30)
            events.append(Event("get", rank=rng.randrange(1 << 30), key=token))
        else:
            events.append(Event("stabilize"))
    # Checkpoints at evenly spaced quiescent points, plus one at the end.
    stride = max(1, len(events) // max(1, config.checkpoints))
    out: List[Event] = []
    for i, event in enumerate(events):
        out.append(event)
        if (i + 1) % stride == 0:
            out.append(Event("checkpoint"))
    if not out or out[-1].kind != "checkpoint":
        out.append(Event("checkpoint"))
    return out


def bootstrap_network(config: FuzzConfig, engine: str = "fast") -> SimulatedCrescendo:
    """The seed-derived initial population (fixed across shrinking)."""
    from ..perf.dynamic import make_protocol

    rng = random.Random(f"fuzz-bootstrap:{config.seed}")
    space = IdSpace(config.bits)
    net = make_protocol(space, engine=engine)
    for node_id in space.random_ids(config.population, rng):
        net.join(node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))])
    net.stabilize_to_convergence()
    return net


# --------------------------------------------------- protocol-state checks


def check_protocol_state(net: SimulatedCrescendo) -> List[Violation]:
    """Ring successor correctness and leaf-set symmetry at every level.

    At a quiescent point each live node's per-ring view must name the next
    live member of that ring as successor, and that successor must name
    the node back as predecessor (Zave's mutual leaf-set consistency, per
    hierarchy level).  A ring whose successor pointers all stay among its
    live members yet form more than one cycle also gets one ``ring-loops``
    row naming the loop sizes: Zave's disjoint loops, each consistent
    inside, which stabilization alone cannot merge.
    """
    out: List[Violation] = []
    live = {n: node for n, node in net.nodes.items() if node.alive}
    members_cache: Dict[Tuple[DomainPath, int], List[int]] = {}
    for node_id, node in live.items():
        for depth in range(node.leaf_depth + 1):
            prefix = node.path[:depth]
            key = (prefix, depth)
            members = members_cache.get(key)
            if members is None:
                members = sorted(
                    m for m, mn in live.items() if mn.path[:depth] == prefix
                )
                members_cache[key] = members
            if len(members) < 2:
                continue
            ring = node.rings[depth]
            expected = members[(members.index(node_id) + 1) % len(members)]
            if ring.successor != expected:
                out.append(
                    Violation(
                        check="protocol-successor",
                        family="protocol",
                        message=(
                            f"ring successor is {ring.successor}, "
                            f"expected {expected}"
                        ),
                        node=node_id,
                        level=depth,
                        domain=prefix,
                    )
                )
                continue
            peer_ring = live[expected].rings[depth]
            if peer_ring.predecessor != node_id:
                out.append(
                    Violation(
                        check="leafset-symmetry",
                        family="protocol",
                        message=(
                            f"successor {expected}'s predecessor is "
                            f"{peer_ring.predecessor}, not this node"
                        ),
                        node=node_id,
                        link=expected,
                        level=depth,
                        domain=prefix,
                    )
                )
    for (prefix, depth), members in members_cache.items():
        loops = _successor_loops(
            {m: live[m].rings[depth].successor for m in members}
        )
        if len(loops) > 1:
            out.append(
                Violation(
                    check="ring-loops",
                    family="protocol",
                    message=(
                        f"successor pointers form {len(loops)} loops "
                        f"of sizes {loops}"
                    ),
                    level=depth,
                    domain=prefix,
                )
            )
    return out


def _successor_loops(successor: Dict[int, Optional[int]]) -> List[int]:
    """Cycle sizes (largest first) of a ring's successor map, or ``[]``
    when some successor is not a key (a pointer leaving the ring)."""
    if not all(succ in successor for succ in successor.values()):
        return []
    loops: List[int] = []
    seen: set = set()
    for start in successor:
        walk: Dict[int, int] = {}
        node = start
        while node not in seen and node not in walk:
            walk[node] = len(walk)
            node = successor[node]
        if node in walk:
            loops.append(len(walk) - walk[node])
        seen.update(walk)
    return sorted(loops, reverse=True)


# ------------------------------------------------------------ one fuzz run


def checkpoint_safety(
    net: SimulatedCrescendo, index: int, converged: bool, data=None, monitor=None
) -> List[Violation]:
    """Convergence, protocol state and (with ``data``) durability at one
    quiescent checkpoint — what every engine's replay must hold."""
    out: List[Violation] = []
    if not converged:
        out.append(
            Violation(
                check="convergence",
                family="protocol",
                message=f"checkpoint {index}: stabilization did not converge",
                level=index,
            )
        )
    out.extend(check_protocol_state(net))
    if data is not None:
        out.extend(check_durability(net, data, monitor))
    return out


def live_statics(
    net: SimulatedCrescendo, families: Sequence[str], rng: random.Random
) -> Iterator[Tuple[str, DHTNetwork]]:
    """Each of ``families`` built over the live membership, lazily, so a
    caller's ``rng`` draws between builds keep their order."""
    live = sorted(n for n, node in net.nodes.items() if node.alive)
    paths = [net.nodes[n].path for n in live]
    hierarchy = Hierarchy()
    for node_id, path in zip(live, paths):
        hierarchy.place(node_id, path)
    for family in families:
        yield family, build_family(
            family,
            net.space,
            hierarchy=None if family in PREFIX_FAMILIES else hierarchy,
            rng=rng,
            domain_paths=paths,
        )


def _intact(family: str, static: DHTNetwork, rng: random.Random) -> bool:
    return False


def static_checks(
    net: SimulatedCrescendo,
    families: Sequence[str],
    routing_pairs: int,
    rng: random.Random,
    tamper: Callable[[str, DHTNetwork, random.Random], bool] = _intact,
) -> Iterator[Tuple[str, DHTNetwork, List[Tuple[int, int]], List[Violation]]]:
    """The static half of the checkpoint battery, one family at a time.

    Each family is rebuilt over the live membership, handed to ``tamper``
    (which may corrupt it and returns whether it did), checked by the
    invariant registry and, unless tampered with, routed scalar vs batch
    on ``routing_pairs`` sampled pairs.  Yields ``(family, static, pairs,
    violations)`` so callers can tally or sample per family.
    """
    for family, static in live_statics(net, families, rng):
        tampered = tamper(family, static, rng)
        found = run_checks(static)
        pairs: List[Tuple[int, int]] = []
        # No routing differential on a deliberately corrupted table:
        # the batch kernels (rightly) refuse to compile bogus targets.
        if not tampered and routing_pairs and static.size >= 2:
            ids = static.node_ids
            pairs = [
                (ids[rng.randrange(len(ids))], ids[rng.randrange(len(ids))])
                for _ in range(routing_pairs)
            ]
            found = found + compare_routing(static, pairs)
        yield family, static, pairs, found


def lockstep(
    bootstrap: Callable[[str], SimulatedCrescendo],
    events: Sequence[Event],
    statics: Callable[[SimulatedCrescendo, int], List[Violation]],
    data_replicas: Optional[int] = None,
    latency: Optional[LatencyTable] = None,
) -> Tuple[ProtocolComparison, List[Violation]]:
    """Replay ``events`` on both maintenance engines and judge the pair.

    ``bootstrap(engine)`` builds each engine's initial network.  With
    ``data_replicas`` the fast engine carries a
    :class:`~repro.perf.storage.FastDataLayer` and the reference the
    scalar :class:`~repro.simulation.data.DataLayer`, each watched by a
    :class:`~repro.verify.oracles.DurabilityMonitor`.  At every checkpoint
    both engines run :func:`checkpoint_safety`, and the fast engine also
    runs ``statics(net, index)``.  Then
    :func:`~repro.verify.oracles.compare_replays` judges the pair (final
    data holders included, and per-lookup latency with a ``latency``
    table).  Returns the comparison and the checkpoint findings.
    """
    from ..perf.storage import FastDataLayer
    from ..simulation.data import DataLayer

    violations: List[Violation] = []

    def replay_on(engine, layer, battery):
        net = bootstrap(engine)
        data = monitor = None
        if data_replicas is not None:
            # Layer first, monitor second: the monitor's hooks must see the
            # layer's post-handoff holder state to classify losses.
            data = layer(net, replicas=data_replicas)
            monitor = DurabilityMonitor(net, data)

        def on_checkpoint(net, index: int, converged: bool) -> None:
            violations.extend(
                checkpoint_safety(net, index, converged, data, monitor)
            )
            violations.extend(battery(net, index))

        return net, run_schedule(net, list(events), on_checkpoint, data=data), data

    fast, fast_report, fast_data = replay_on("fast", FastDataLayer, statics)
    ref, ref_report, ref_data = replay_on(
        "reference", DataLayer, lambda net, index: []
    )
    comparison = compare_replays(
        ref, ref_report, fast, fast_report, latency=latency,
        data=None if data_replicas is None else (ref_data, fast_data),
    )
    return comparison, violations


def replay(config: FuzzConfig, schedule: Sequence[Event]) -> FuzzReport:
    """Replay one schedule on both engines in :func:`lockstep` and verify.

    The fast engine's static battery rebuilds every configured family and
    corrupts ``config.mutate_family`` first when set.  The report carries
    the fast engine's replay.
    """

    def tamper(family: str, static: DHTNetwork, rng: random.Random) -> bool:
        if family != config.mutate_family:
            return False
        corrupt(static, rng, config.mutate_kind)
        return True

    def statics(net: SimulatedCrescendo, index: int) -> List[Violation]:
        rng = random.Random(f"fuzz-checkpoint:{config.seed}:{index}")
        checks = static_checks(
            net, config.families, config.routing_pairs, rng, tamper
        )
        return [v for *_, found in checks for v in found]

    comparison, violations = lockstep(
        lambda engine: bootstrap_network(config, engine),
        schedule,
        statics,
        config.data_replicas,
    )
    return FuzzReport(
        config=config,
        schedule=list(schedule),
        replay=comparison.fast_report,
        violations=violations + comparison.violations,
    )


def run_fuzz(config: FuzzConfig, shrink: bool = True) -> FuzzReport:
    """Generate the seed's schedule, replay it and shrink on failure."""
    report = replay(config, generate_schedule(config))
    if report.failed and shrink:
        shrunk, tries = shrink_schedule(
            report.schedule, lambda evs: replay(config, evs).failed
        )
        report.shrunk = shrunk
        report.shrink_replays = tries
    return report


# ---------------------------------------------------------------- shrinking


def shrink_schedule(
    events: Sequence[Event],
    still_failing: Callable[[Sequence[Event]], bool],
    max_replays: int = 120,
) -> Tuple[List[Event], int]:
    """Greedy delta debugging: drop chunks while the failure reproduces.

    Halving chunk sizes down to single events, repeatedly removing any
    chunk whose absence keeps ``still_failing`` true.  Bounded by
    ``max_replays`` predicate evaluations so pathological schedules cannot
    stall a nightly run; the result is 1-minimal when the budget suffices.
    """
    current = list(events)
    replays = 0
    chunk = max(1, len(current) // 2)
    while replays < max_replays:
        index = 0
        reduced = False
        while index < len(current) and replays < max_replays:
            candidate = current[:index] + current[index + chunk :]
            replays += 1
            if candidate and still_failing(candidate):
                current = candidate
                reduced = True
            else:
                index += chunk
        if chunk == 1:
            if not reduced:
                break  # 1-minimal: no single event can be removed
        else:
            chunk = max(1, chunk // 2)
    return current, replays


# ------------------------------------------------------------ serialization

#: Per event kind: (required fields, optional fields).  Everything else —
#: including fields valid for *other* kinds — is rejected, so a fixture
#: that was hand-edited into nonsense fails loudly instead of replaying
#: as something subtly different.
EVENT_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "join": (("node", "path"), ()),
    "leave": (("rank",), ()),
    "crash": (("rank",), ()),
    "lookup": (("rank", "key"), ()),
    "put": (("rank", "key"), ("depth",)),
    "get": (("rank", "key"), ()),
    "stabilize": ((), ()),
    "checkpoint": ((), ()),
    "kill_domain": (("path",), ()),
    "partition": (("path",), ()),
    "heal": ((), ("path",)),
}
assert set(EVENT_FIELDS) == set(Event.KINDS)


def event_to_dict(event: Event) -> Dict[str, object]:
    """One schedule event as a JSON-ready dict (``None`` fields omitted)."""
    return {
        "kind": event.kind,
        **({"node": event.node} if event.node is not None else {}),
        **({"path": list(event.path)} if event.path is not None else {}),
        **({"rank": event.rank} if event.rank is not None else {}),
        **({"key": event.key} if event.key is not None else {}),
        **({"depth": event.depth} if event.depth is not None else {}),
    }


def _int_field(doc: Dict, name: str, where: str) -> Optional[int]:
    value = doc.get(name)
    if value is None:
        return None
    # bool is an int subclass; a fixture saying "rank": true is malformed.
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(
            f"{where}: {name} must be a non-negative integer, got {value!r}"
        )
    return value


def _path_field(doc: Dict, where: str) -> Optional[DomainPath]:
    raw = doc.get("path")
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ValueError(
            f"{where}: path must be a list of domain-name strings, got {raw!r}"
        )
    return tuple(raw)


def event_from_dict(doc: object, index: int = 0) -> Event:
    """Parse and validate one serialized event.

    Rejects unknown kinds, missing required fields, fields that do not
    belong to the kind, and ill-typed values — each with an error naming
    the event index and the offence, so a broken fixture points at its
    own defect instead of failing (or worse, passing) downstream.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"event {index}: expected an object, got {doc!r}")
    kind = doc.get("kind")
    if kind not in EVENT_FIELDS:
        raise ValueError(
            f"event {index}: unknown kind {kind!r} "
            f"(known: {', '.join(Event.KINDS)})"
        )
    where = f"event {index} ({kind})"
    required, optional = EVENT_FIELDS[kind]
    allowed = {"kind", *required, *optional}
    unexpected = sorted(set(doc) - allowed)
    if unexpected:
        raise ValueError(
            f"{where}: unexpected field(s) {', '.join(unexpected)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ValueError(f"{where}: missing required field(s) {', '.join(missing)}")
    return Event(
        kind=kind,
        node=_int_field(doc, "node", where),
        path=_path_field(doc, where),
        rank=_int_field(doc, "rank", where),
        key=_int_field(doc, "key", where),
        depth=_int_field(doc, "depth", where),
    )


def events_from_docs(docs: object, where: str = "fixture") -> List[Event]:
    """Parse a serialized event list, validating every entry."""
    if not isinstance(docs, list):
        raise ValueError(f"{where}: events must be a list, got {docs!r}")
    return [event_from_dict(doc, index) for index, doc in enumerate(docs)]


def schedule_to_json(config: FuzzConfig, events: Sequence[Event]) -> str:
    """A replayable counterexample document (fixture format)."""
    return json.dumps(
        {
            "seed": config.seed,
            "population": config.population,
            "bits": config.bits,
            "families": list(config.families),
            "mutate_family": config.mutate_family,
            "mutate_kind": config.mutate_kind,
            "routing_pairs": config.routing_pairs,
            **(
                {"data_replicas": config.data_replicas}
                if config.data_replicas is not None
                else {}
            ),
            "expect_violations": config.mutate_family is not None,
            "events": [event_to_dict(e) for e in events],
        },
        indent=2,
    )


def _config_int(doc: Dict, name: str, default=None, minimum: int = 0) -> Optional[int]:
    if name not in doc:
        if default is not None or name in ("mutate_family", "data_replicas"):
            return default
        raise ValueError(f"fixture: missing required key {name!r}")
    value = doc[name]
    if value is None and name == "data_replicas":
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"fixture: {name} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def schedule_from_json(text: str) -> Tuple[FuzzConfig, List[Event], bool]:
    """Parse a fixture; returns (config, events, expect_violations).

    The document is fully validated — unknown event kinds, malformed
    event fields, an empty or unknown family list and ill-typed config
    values all raise :class:`ValueError` with a message naming the
    offending entry.
    """
    from .builders import EXTRA_FAMILIES
    from .mutate import KINDS as MUTATION_KINDS

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"fixture: not valid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise ValueError(f"fixture: expected a JSON object, got {doc!r}")
    if "events" not in doc:
        raise ValueError("fixture: missing required key 'events'")
    events = events_from_docs(doc["events"])

    known_families = FAMILIES + EXTRA_FAMILIES
    families = doc.get("families")
    if families is None:
        raise ValueError("fixture: missing required key 'families'")
    if not isinstance(families, list) or not all(
        isinstance(f, str) for f in families
    ):
        raise ValueError(f"fixture: families must be a list of names, got {families!r}")
    if not families:
        raise ValueError("fixture: families must name at least one family")
    unknown = [f for f in families if f not in known_families]
    if unknown:
        raise ValueError(
            f"fixture: unknown families {unknown} "
            f"(known: {', '.join(known_families)})"
        )
    mutate_family = doc.get("mutate_family")
    if mutate_family is not None and mutate_family not in known_families:
        raise ValueError(
            f"fixture: unknown mutate_family {mutate_family!r} "
            f"(known: {', '.join(known_families)})"
        )
    mutate_kind = doc.get("mutate_kind", "drop")
    if mutate_kind not in MUTATION_KINDS:
        raise ValueError(
            f"fixture: unknown mutate_kind {mutate_kind!r} "
            f"(known: {', '.join(MUTATION_KINDS)})"
        )
    bits = _config_int(doc, "bits", default=32, minimum=1)
    if bits > 64:
        raise ValueError(f"fixture: bits must be <= 64, got {bits}")
    config = FuzzConfig(
        seed=_config_int(doc, "seed"),
        events=len(events),
        families=tuple(families),
        population=_config_int(doc, "population", minimum=1),
        bits=bits,
        mutate_family=mutate_family,
        mutate_kind=mutate_kind,
        routing_pairs=_config_int(doc, "routing_pairs", default=32),
        data_replicas=_config_int(doc, "data_replicas", minimum=1),
    )
    return config, events, bool(doc.get("expect_violations"))
