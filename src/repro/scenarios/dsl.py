"""The scenario DSL: phases -> deterministic, replayable event schedules.

A :class:`ScenarioSpec` is a named list of :class:`Phase` steps over a
fixed domain tree.  :func:`compile_scenario` expands it into the same
:class:`~repro.simulation.churn.Event` vocabulary the verify fuzzer uses:
all randomness (ids, keys, ranks) is consumed at compile time from a
seed-derived RNG, so the compiled schedule replays bit-for-bit, any
sub-list of it still replays (ddmin shrinking), and the JSON form
round-trips exactly through the hardened
:func:`repro.verify.fuzz.event_from_dict` substrate.

Compilation keeps a *membership model* — the bootstrap population plus
every compiled join, minus kills, with partitioned nodes marked dark — so
domain-targeted traffic (the flash crowd's Zipf skew over one domain's
ids) picks plausible hot keys without touching replay-time state.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.hierarchy import DomainPath
from ..core.idspace import IdSpace
from ..simulation.churn import Event
from ..simulation.protocol import SimulatedCrescendo
from ..verify.fuzz import FUZZ_PATHS, event_to_dict, events_from_docs
from ..workloads.queries import zipf_key_workload

#: Phase vocabulary: op -> (required fields, optional fields).  Mirrors
#: the shape of :data:`repro.verify.fuzz.EVENT_FIELDS`; anything outside
#: the allowed set is rejected at validation time.
PHASE_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "traffic": (("count",), ("domain", "zipf")),
    "mix": (("count",), ("weights",)),
    "join_wave": (("count",), ("domain", "stagger")),
    "leave_wave": (("count",), ()),
    "crash_wave": (("count",), ()),
    "kill_domain": (("domain",), ()),
    "partition": (("domain",), ()),
    "heal": ((), ("domain",)),
    "stabilize": ((), ("count",)),
    "checkpoint": ((), ()),
}

#: Event kinds a ``mix`` phase may weight (put/get need a data layer).
MIX_KINDS = ("join", "leave", "crash", "lookup", "stabilize", "put", "get")


@dataclass(frozen=True)
class Phase:
    """One step of a scenario; which fields apply depends on ``op``.

    - ``traffic``: ``count`` lookups; ``domain`` focuses the keys on that
      subtree's member ids, ``zipf`` skews their popularity (rank by id).
    - ``mix``: ``count`` events drawn from ``weights`` (fuzzer-style
      background load).
    - ``join_wave``: ``count`` joins, into leaf domains under ``domain``
      when given; ``stagger`` inserts a stabilize round every that many
      joins (the ramped "datacenter comes online" shape).
    - ``leave_wave`` / ``crash_wave``: ``count`` rank-addressed departures.
    - ``kill_domain`` / ``partition``: take the ``domain`` subtree down
      (permanently / suspended-but-state-retained).
    - ``heal``: revive suspended nodes (all, or just ``domain``'s).
    - ``stabilize``: ``count`` maintenance rounds (default 1).
    - ``checkpoint``: a quiescent oracle point.
    """

    op: str
    count: Optional[int] = None
    domain: Optional[DomainPath] = None
    zipf: Optional[float] = None
    stagger: Optional[int] = None
    weights: Optional[Tuple[Tuple[str, float], ...]] = None

    @staticmethod
    def mix_weights(mapping: Dict[str, float]) -> Tuple[Tuple[str, float], ...]:
        """Canonical (hashable, ordered) form for ``mix`` weights."""
        return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario: population, domain tree, phases, expectations."""

    name: str
    description: str = ""
    population: int = 32
    bits: int = 32
    domains: Tuple[DomainPath, ...] = FUZZ_PATHS
    #: replication degree of the data layer riding the scenario (None for
    #: a bare network).  Incompatible with ``partition`` phases: the
    #: durability oracle would misread suspended holders as dead.
    data_replicas: Optional[int] = None
    #: True for negative controls: the run *must* trip an oracle.
    expect_violations: bool = False
    phases: Tuple[Phase, ...] = ()


# ---------------------------------------------------------------- validation


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def validate_spec(spec: ScenarioSpec) -> None:
    """Reject malformed specs with an error naming the offending phase."""
    where = f"scenario {spec.name!r}"
    if not spec.name or not isinstance(spec.name, str):
        raise ValueError("scenario name must be a non-empty string")
    if not _is_count(spec.population) or spec.population < 4:
        raise ValueError(f"{where}: population must be an integer >= 4")
    if not _is_count(spec.bits) or spec.bits > 64:
        raise ValueError(f"{where}: bits must be an integer in [1, 64]")
    if not spec.domains or not all(
        isinstance(d, tuple) and d and all(isinstance(c, str) for c in d)
        for d in spec.domains
    ):
        raise ValueError(
            f"{where}: domains must be non-empty tuples of domain names"
        )
    if spec.data_replicas is not None and not _is_count(spec.data_replicas):
        raise ValueError(f"{where}: data_replicas must be a positive integer")
    if not spec.phases:
        raise ValueError(f"{where}: at least one phase is required")
    for index, phase in enumerate(spec.phases):
        _validate_phase(spec, phase, f"{where}: phase {index}")


def _validate_phase(spec: ScenarioSpec, phase: Phase, where: str) -> None:
    if phase.op not in PHASE_FIELDS:
        raise ValueError(
            f"{where}: unknown op {phase.op!r} "
            f"(known: {', '.join(PHASE_FIELDS)})"
        )
    where = f"{where} ({phase.op})"
    required, optional = PHASE_FIELDS[phase.op]
    allowed = set(required) | set(optional)
    for name in ("count", "domain", "zipf", "stagger", "weights"):
        value = getattr(phase, name)
        if value is not None and name not in allowed:
            raise ValueError(f"{where}: field {name!r} does not apply")
        if value is None and name in required:
            raise ValueError(f"{where}: missing required field {name!r}")
    if phase.count is not None and not _is_count(phase.count):
        raise ValueError(f"{where}: count must be a positive integer")
    if phase.stagger is not None and not _is_count(phase.stagger):
        raise ValueError(f"{where}: stagger must be a positive integer")
    if phase.zipf is not None and not (
        isinstance(phase.zipf, (int, float))
        and not isinstance(phase.zipf, bool)
        and phase.zipf > 0
    ):
        raise ValueError(f"{where}: zipf must be a positive exponent")
    if phase.domain is not None:
        if not isinstance(phase.domain, tuple) or not all(
            isinstance(c, str) for c in phase.domain
        ):
            raise ValueError(f"{where}: domain must be a tuple of names")
        depth = len(phase.domain)
        if depth and not any(d[:depth] == phase.domain for d in spec.domains):
            raise ValueError(
                f"{where}: domain {phase.domain!r} is not a prefix of any "
                f"scenario domain"
            )
    if phase.op in ("kill_domain", "partition") and phase.domain == ():
        raise ValueError(f"{where}: refusing to take down the whole network")
    if phase.op == "partition" and spec.data_replicas is not None:
        raise ValueError(
            f"{where}: partition phases are incompatible with a data layer "
            f"(the durability oracle would misread suspended holders as dead)"
        )
    if phase.weights is not None:
        if not isinstance(phase.weights, tuple) or not all(
            isinstance(w, tuple)
            and len(w) == 2
            and isinstance(w[0], str)
            and isinstance(w[1], (int, float))
            and not isinstance(w[1], bool)
            and w[1] > 0
            for w in phase.weights
        ):
            raise ValueError(
                f"{where}: weights must be (kind, positive weight) pairs"
            )
        try:
            total = math.fsum(w for _, w in phase.weights)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise ValueError(
                f"{where}: weights must be finite, with a finite total"
            )
        data_kinds = () if spec.data_replicas is not None else ("put", "get")
        for kind, _ in phase.weights:
            if kind not in MIX_KINDS or kind in data_kinds:
                raise ValueError(
                    f"{where}: kind {kind!r} cannot be weighted here "
                    f"(known: {', '.join(MIX_KINDS)}; put/get need "
                    f"data_replicas)"
                )


# --------------------------------------------------------------- compilation


def bootstrap_placement(
    spec: ScenarioSpec, seed: int
) -> List[Tuple[int, DomainPath]]:
    """The seed-derived initial population as (id, leaf domain) pairs.

    Both :func:`bootstrap_scenario` and the compiler's membership model
    derive from this one function, so compiled key choices always refer
    to ids that actually exist at replay time.  Domains are striped
    (shuffled round-robin) rather than drawn independently: every leaf
    domain is guaranteed ~population/len(domains) members, so targeted
    phases (a flash crowd on one domain, a regional kill) always have a
    non-empty target.
    """
    rng = random.Random(f"scenario-bootstrap:{spec.name}:{seed}")
    space = IdSpace(spec.bits)
    stripes = [
        spec.domains[i % len(spec.domains)] for i in range(spec.population)
    ]
    rng.shuffle(stripes)
    return list(zip(space.random_ids(spec.population, rng), stripes))


def bootstrap_scenario(
    spec: ScenarioSpec, seed: int, engine: str = "fast"
) -> SimulatedCrescendo:
    """A bootstrapped, converged network for the scenario on the named
    engine (see :func:`~repro.perf.dynamic.make_protocol`)."""
    from ..perf.dynamic import make_protocol

    net = make_protocol(IdSpace(spec.bits), engine=engine)
    for node_id, path in bootstrap_placement(spec, seed):
        net.join(node_id, path)
    net.stabilize_to_convergence()
    return net


class _Membership:
    """Compile-time view of who is reachable (approximate, deterministic)."""

    def __init__(self, placement: Sequence[Tuple[int, DomainPath]]) -> None:
        self.members: Dict[int, DomainPath] = dict(placement)
        self.dark: Dict[int, DomainPath] = {}

    def under(self, prefix: DomainPath) -> List[int]:
        depth = len(prefix)
        return sorted(
            n for n, p in self.members.items() if p[:depth] == prefix
        )

    def kill(self, prefix: DomainPath) -> None:
        for node in self.under(prefix):
            del self.members[node]

    def suspend(self, prefix: DomainPath) -> None:
        for node in self.under(prefix):
            self.dark[node] = self.members.pop(node)

    def revive(self, prefix: Optional[DomainPath]) -> None:
        depth = len(prefix) if prefix is not None else 0
        for node in sorted(self.dark):
            if prefix is None or self.dark[node][:depth] == prefix:
                self.members[node] = self.dark.pop(node)


def compile_scenario(spec: ScenarioSpec, seed: int) -> List[Event]:
    """Expand the spec into a deterministic event schedule.

    All randomness is drawn here from ``Random(f"scenario:{name}:{seed}")``
    — replaying the output (or any shrunk sub-list) never touches an RNG.
    """
    validate_spec(spec)
    rng = random.Random(f"scenario:{spec.name}:{seed}")
    space = IdSpace(spec.bits)
    membership = _Membership(bootstrap_placement(spec, seed))
    used = set(membership.members)
    events: List[Event] = []

    def fresh_id() -> int:
        node = space.random_id(rng)
        while node in used:
            node = space.random_id(rng)
        used.add(node)
        return node

    def leaf_domains(prefix: Optional[DomainPath]) -> List[DomainPath]:
        if prefix is None:
            return list(spec.domains)
        depth = len(prefix)
        return [d for d in spec.domains if d[:depth] == prefix]

    def emit_join(prefix: Optional[DomainPath]) -> None:
        leaves = leaf_domains(prefix)
        path = leaves[rng.randrange(len(leaves))]
        node = fresh_id()
        membership.members[node] = path
        events.append(Event("join", node=node, path=path))

    def traffic_keys(phase: Phase) -> List[int]:
        pool = membership.under(phase.domain or ())
        if not pool:
            pool = sorted(membership.members)
        if phase.zipf is None and phase.domain is None:
            return [space.random_id(rng) for _ in range(phase.count)]
        exponent = 1.0 if phase.zipf is None else float(phase.zipf)
        ranks = zipf_key_workload(len(pool), phase.count, rng, exponent)
        return [pool[r] for r in ranks]

    for phase in spec.phases:
        if phase.op == "traffic":
            for key in traffic_keys(phase):
                events.append(
                    Event("lookup", rank=rng.randrange(1 << 30), key=key)
                )
        elif phase.op == "mix":
            weights = phase.weights or Phase.mix_weights(
                {"join": 0.15, "leave": 0.08, "crash": 0.05,
                 "lookup": 0.62, "stabilize": 0.10}
            )
            kinds = [k for k, _ in weights]
            probs = [w for _, w in weights]
            put_keys: List[int] = []
            for _ in range(phase.count):
                kind = rng.choices(kinds, probs)[0]
                if kind == "join":
                    emit_join(None)
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
                    if put_keys and rng.random() < 0.8:
                        token = put_keys[rng.randrange(len(put_keys))]
                    else:
                        token = rng.randrange(1 << 30)
                    events.append(
                        Event("get", rank=rng.randrange(1 << 30), key=token)
                    )
                else:
                    events.append(Event("stabilize"))
        elif phase.op == "join_wave":
            for i in range(phase.count):
                emit_join(phase.domain)
                if phase.stagger and (i + 1) % phase.stagger == 0:
                    events.append(Event("stabilize"))
        elif phase.op in ("leave_wave", "crash_wave"):
            kind = "leave" if phase.op == "leave_wave" else "crash"
            for _ in range(phase.count):
                events.append(Event(kind, rank=rng.randrange(1 << 30)))
        elif phase.op == "kill_domain":
            membership.kill(phase.domain)
            events.append(Event("kill_domain", path=phase.domain))
        elif phase.op == "partition":
            membership.suspend(phase.domain)
            events.append(Event("partition", path=phase.domain))
        elif phase.op == "heal":
            membership.revive(phase.domain)
            events.append(Event("heal", path=phase.domain))
        elif phase.op == "stabilize":
            for _ in range(phase.count or 1):
                events.append(Event("stabilize"))
        else:  # checkpoint (validate_spec rejected everything else)
            events.append(Event("checkpoint"))
    return events


# -------------------------------------------------------------- JSON format


def _phase_to_dict(phase: Phase) -> Dict[str, object]:
    out: Dict[str, object] = {"op": phase.op}
    if phase.count is not None:
        out["count"] = phase.count
    if phase.domain is not None:
        out["domain"] = list(phase.domain)
    if phase.zipf is not None:
        out["zipf"] = phase.zipf
    if phase.stagger is not None:
        out["stagger"] = phase.stagger
    if phase.weights is not None:
        out["weights"] = {k: w for k, w in phase.weights}
    return out


def _phase_from_dict(doc: object, index: int) -> Phase:
    where = f"phase {index}"
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {doc!r}")
    op = doc.get("op")
    if op not in PHASE_FIELDS:
        raise ValueError(
            f"{where}: unknown op {op!r} (known: {', '.join(PHASE_FIELDS)})"
        )
    required, optional = PHASE_FIELDS[op]
    allowed = {"op", *required, *optional}
    unexpected = sorted(set(doc) - allowed)
    if unexpected:
        raise ValueError(
            f"{where} ({op}): unexpected field(s) {', '.join(unexpected)}"
        )
    domain = doc.get("domain")
    if domain is not None:
        if not isinstance(domain, list) or not all(
            isinstance(c, str) for c in domain
        ):
            raise ValueError(f"{where} ({op}): domain must be a list of names")
        domain = tuple(domain)
    weights = doc.get("weights")
    if weights is not None:
        if not isinstance(weights, dict):
            raise ValueError(f"{where} ({op}): weights must be an object")
        weights = Phase.mix_weights(weights)
    return Phase(
        op=op,
        count=doc.get("count"),
        domain=domain,
        zipf=doc.get("zipf"),
        stagger=doc.get("stagger"),
        weights=weights,
    )


@dataclass
class ScenarioDocument:
    """A parsed scenario fixture: spec + seed + the frozen event list.

    The events are stored alongside the spec (not recompiled at load
    time) so shrunk schedules — which no longer match any compiler
    output — stay replayable fixtures.
    """

    spec: ScenarioSpec
    seed: int
    events: List[Event] = field(default_factory=list)

    @property
    def expect_violations(self) -> bool:
        return self.spec.expect_violations


def scenario_to_json(
    spec: ScenarioSpec, seed: int, events: Sequence[Event]
) -> str:
    """A replayable scenario fixture (spec + compiled/shrunk events)."""
    return json.dumps(
        {
            "scenario": spec.name,
            "description": spec.description,
            "seed": seed,
            "population": spec.population,
            "bits": spec.bits,
            "domains": [list(d) for d in spec.domains],
            **(
                {"data_replicas": spec.data_replicas}
                if spec.data_replicas is not None
                else {}
            ),
            "expect_violations": spec.expect_violations,
            "phases": [_phase_to_dict(p) for p in spec.phases],
            "events": [event_to_dict(e) for e in events],
        },
        indent=2,
    )


def scenario_from_json(text: str) -> ScenarioDocument:
    """Parse and fully validate a scenario fixture."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"scenario fixture: not valid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise ValueError(f"scenario fixture: expected a JSON object, got {doc!r}")
    for key in ("scenario", "seed", "population", "domains", "phases", "events"):
        if key not in doc:
            raise ValueError(f"scenario fixture: missing required key {key!r}")
    name = doc["scenario"]
    if not isinstance(name, str) or not name:
        raise ValueError("scenario fixture: scenario must be a non-empty name")
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"scenario fixture: seed must be an integer, got {seed!r}")
    domains = doc["domains"]
    if not isinstance(domains, list) or not all(
        isinstance(d, list) and all(isinstance(c, str) for c in d)
        for d in domains
    ):
        raise ValueError(
            "scenario fixture: domains must be a list of domain paths"
        )
    if not isinstance(doc["phases"], list):
        raise ValueError("scenario fixture: phases must be a list")
    spec = ScenarioSpec(
        name=name,
        description=doc.get("description", ""),
        population=doc["population"],
        bits=doc.get("bits", 32),
        domains=tuple(tuple(d) for d in domains),
        data_replicas=doc.get("data_replicas"),
        expect_violations=bool(doc.get("expect_violations", False)),
        phases=tuple(
            _phase_from_dict(p, i) for i, p in enumerate(doc["phases"])
        ),
    )
    validate_spec(spec)
    return ScenarioDocument(
        spec=spec,
        seed=seed,
        events=events_from_docs(doc["events"], where="scenario fixture"),
    )
