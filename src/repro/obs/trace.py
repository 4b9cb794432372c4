"""Span/event tracing with per-hop route annotation.

A :class:`Tracer` records three kinds of records, all plain dicts so they
serialise directly to JSONL:

- **spans** — named wall-clock intervals opened with the context manager
  :meth:`Tracer.span` (``with tracer.span("fig5", n=4096): ...``); spans
  nest, and each records its parent.
- **events** — instantaneous points (:meth:`Tracer.event`), e.g. one per
  drained simulator event.
- **routes** — one record per routing attempt (:meth:`Tracer.route`), with
  every hop annotated by the hierarchy level and domain it was taken at.
  A hop from ``a`` to ``b`` "happens at" the lowest common ancestor domain
  of the two nodes: that is the merge level whose construction rule created
  the link, and the quantity behind the paper's locality and convergence
  results (Figures 7-8).

Export as JSONL (:meth:`Tracer.export_jsonl`) or as a Chrome trace-event
file (:meth:`Tracer.export_chrome`) loadable in ``chrome://tracing`` /
``ui.perfetto.dev``; :func:`jsonl_to_chrome` converts an existing JSONL
trace.

Tracing must never change behaviour: tracers only *observe* finished
routes, and the engines in :mod:`repro.core.routing` consult their
``tracer`` argument exactly once per route, after the path is complete
(property-tested in ``tests/test_obs_invariance.py``).

A process-wide *active* tracer can be installed with :func:`tracing` (or
:func:`activate`); instrumented call sites such as
:func:`repro.analysis.metrics.sample_routing` and
:class:`repro.simulation.events.Simulator` pick it up automatically.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

from ..core.hierarchy import Hierarchy, format_name, lca

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from ..core.routing import Route


@dataclass(frozen=True)
class HopAnnotation:
    """One routing hop, annotated with where in the hierarchy it was taken.

    ``level`` is the depth of the lowest common ancestor domain of ``src``
    and ``dst`` (0 = the hop crossed top-level domains through the root);
    ``domain`` is that LCA domain's dotted name (``""`` for the root).
    """

    src: int
    dst: int
    level: int
    domain: str

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used in trace records."""
        return {
            "src": self.src,
            "dst": self.dst,
            "level": self.level,
            "domain": self.domain,
        }


def annotate_hops(path: Sequence[int], hierarchy: Hierarchy) -> List[HopAnnotation]:
    """Annotate each consecutive hop of a node path with its LCA level/domain."""
    out: List[HopAnnotation] = []
    for a, b in zip(path, path[1:]):
        domain = lca(hierarchy.path_of(a), hierarchy.path_of(b))
        out.append(HopAnnotation(a, b, len(domain), format_name(domain)))
    return out


class Tracer:
    """Collects span, event and route records; exports JSONL / Chrome traces.

    Thread-compatible for the library's single-threaded hot paths: record
    appends are protected by a lock so the sampling profiler and background
    threads may also emit events, but span nesting state is per-tracer (the
    library routes and simulates on one thread).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._stack: List[str] = []
        self.records: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- recording

    def _now_us(self) -> float:
        """Microseconds since this tracer was created."""
        return (self._clock() - self._epoch) * 1e6

    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record a named wall-clock interval around the ``with`` body."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = self._now_us()
        try:
            yield
        finally:
            self._stack.pop()
            record: Dict[str, Any] = {
                "type": "span",
                "name": name,
                "ts": start,
                "dur": self._now_us() - start,
            }
            if parent is not None:
                record["parent"] = parent
            if attrs:
                record["attrs"] = attrs
            self._append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous event."""
        record: Dict[str, Any] = {"type": "event", "name": name, "ts": self._now_us()}
        if self._stack:
            record["parent"] = self._stack[-1]
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    def route(
        self,
        route: "Route",
        hierarchy: Optional[Hierarchy] = None,
        **attrs: Any,
    ) -> None:
        """Record one finished routing attempt, hop-annotated if possible.

        With a ``hierarchy``, each hop is annotated with the level and
        domain of the two endpoints' lowest common ancestor — the level the
        hop was "taken at" in the Canon construction.
        """
        record: Dict[str, Any] = {
            "type": "route",
            "ts": self._now_us(),
            "src": route.source,
            "dest_key": route.dest_key,
            "terminal": route.terminal,
            "hops": route.hops,
            "success": route.success,
        }
        if hierarchy is not None:
            record["path"] = [h.as_dict() for h in annotate_hops(route.path, hierarchy)]
        else:
            record["path"] = list(route.path)
        if self._stack:
            record["parent"] = self._stack[-1]
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    def clear(self) -> None:
        """Drop all collected records."""
        with self._lock:
            self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    # --------------------------------------------------------------- export

    def export_jsonl(self, path: str) -> None:
        """Write one JSON record per line (the native export format)."""
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")

    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Records in Chrome trace-event form (``chrome://tracing``)."""
        return [_chrome_event(record) for record in self.records]

    def export_chrome(self, path: str) -> None:
        """Write a Chrome trace-event JSON file (open in ``chrome://tracing``)."""
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.to_chrome_events()}, fh)


def _chrome_event(record: Dict[str, Any]) -> Dict[str, Any]:
    """One native trace record -> one Chrome trace-event dict."""
    args = dict(record.get("attrs", {}))
    kind = record.get("type")
    if kind == "span":
        return {
            "name": record["name"],
            "ph": "X",
            "ts": record["ts"],
            "dur": record["dur"],
            "pid": 0,
            "tid": 0,
            "args": args,
        }
    if kind == "route":
        args.update(
            {
                "src": record["src"],
                "dest_key": record["dest_key"],
                "hops": record["hops"],
                "success": record["success"],
                "path": record["path"],
            }
        )
        name = f"route {record['src']}->{record['dest_key']}"
        return {
            "name": name,
            "ph": "i",
            "ts": record["ts"],
            "s": "p",
            "pid": 0,
            "tid": 0,
            "args": args,
        }
    return {
        "name": record.get("name", "event"),
        "ph": "i",
        "ts": record["ts"],
        "s": "t",
        "pid": 0,
        "tid": 0,
        "args": args,
    }


def jsonl_to_chrome(jsonl_path: str, chrome_path: str) -> int:
    """Convert an exported JSONL trace to a Chrome trace-event file.

    Returns the number of converted records.  Usage::

        python -c "from repro.obs.trace import jsonl_to_chrome; \\
                   jsonl_to_chrome('t.jsonl', 't.json')"
    """
    events = []
    with open(jsonl_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(_chrome_event(json.loads(line)))
    with open(chrome_path, "w") as fh:
        json.dump({"traceEvents": events}, fh)
    return len(events)


# ------------------------------------------------------- active tracer state

_active: Optional[Tracer] = None


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide active tracer; returns it."""
    global _active
    _active = tracer
    return tracer


def deactivate() -> None:
    """Remove the active tracer (instrumented call sites become no-ops)."""
    global _active
    _active = None


def active_tracer() -> Optional[Tracer]:
    """The currently installed tracer, or ``None``."""
    return _active


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a tracer (a fresh one by default) for the ``with`` body."""
    tracer = tracer if tracer is not None else Tracer()
    previous = _active
    activate(tracer)
    try:
        yield tracer
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
