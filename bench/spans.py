"""In-memory span tracer for the benchmark's ``--trace 1`` runs.

Spans are recorded from the benchmark's side of each layer boundary, never
from inside ``src/``: either at a call site (``with tracer.span(name)``)
or, for calls the library makes internally, by rebinding a class or module
attribute to a timing wrapper for as long as the tracer is installed
(:meth:`Tracer.install` / :meth:`Tracer.uninstall`).  Untraced rounds run
with every attribute restored, so end-to-end numbers never pay for spans.

A span is ``[name, start, end, parent, phase, round, units]``; ``parent``
is the index of the enclosing span (-1 at the top).  A layer's *self time*
is its span's duration minus the part its child spans cover, so the self
times of all spans under one root add up to that root's duration exactly.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, PHASE, ROUND, UNITS = range(7)

#: (module, class name or None, attribute, span name, units).  ``units``
#: maps ``(args, result)`` of one call to a work count stored on the span.
TracePoint = Tuple[str, Optional[str], str, str, Optional[Callable]]


def _stepped(args, _result) -> int:
    return int(args[1].size)  # frontier_step(self, cur_ids, ...)


def _hops(_args, result) -> int:
    return int(result.hops.sum())  # BatchResult of one whole-route call


def _capacity(args, _result) -> int:
    return int(args[0].batcher.capacity)  # ServeRuntime.report(self)


#: Every boundary the library crosses on its own.  Calls the benchmark
#: makes itself are spanned at the call site in ``workloads.py``.
TRACE_POINTS: Sequence[TracePoint] = (
    ("repro.topology.transit_stub", "TransitStubTopology", "__init__", "topology.build", None),
    ("repro.topology.transit_stub", "TransitStubTopology", "attach_nodes", "topology.attach", None),
    ("repro.topology.transit_stub", "TransitStubTopology", "attach_node", "topology.attach", None),
    ("repro.topology.transit_stub", "TransitStubTopology", "latency_table", "latency.table_build", None),
    ("repro.perf.latency", "LatencyTable", "from_topology", "latency.table_build", None),
    ("repro.perf.kernels", "CompiledNetwork", "__init__", "kernels.compile", None),
    ("repro.perf.kernels", "CompiledNetwork", "route_ring", "kernels.route_ring", _hops),
    ("repro.perf.kernels", "CompiledNetwork", "route_xor", "kernels.route_xor", _hops),
    ("repro.perf.kernels", "CompiledNetwork", "frontier_step", "kernels.frontier_step", _stepped),
    ("repro.serve.runtime", "ServeRuntime", "submit_many", "serve.submit", None),
    ("repro.serve.runtime", "ServeRuntime", "tick", "serve.tick", None),
    ("repro.serve.runtime", "ServeRuntime", "report", "serve.report", _capacity),
    ("repro.serve.runtime", "ServeRuntime", "set_view", "serve.set_view", None),
    ("repro.serve.batcher", None, "compile_protocol_view", "batcher.compile_view", None),
    ("repro.serve.scenario", None, "compile_protocol_view", "batcher.compile_view", None),
    ("repro.serve.scenario", None, "run_schedule", "churn.run_schedule", None),
    ("repro.serve.middleware", "SLOMiddleware", "after_complete", "middleware.after_complete", None),
    ("repro.perf.dynamic", "FastSimulatedCrescendo", "join", "dynamic.join", None),
    ("repro.perf.dynamic", "FastSimulatedCrescendo", "leave", "dynamic.leave", None),
    ("repro.perf.dynamic", "FastSimulatedCrescendo", "crash", "dynamic.crash", None),
    ("repro.perf.dynamic", "FastSimulatedCrescendo", "stabilize", "dynamic.stabilize", None),
    ("repro.perf.dynamic", "FastSimulatedCrescendo", "stabilize_to_convergence", "dynamic.converge", None),
    ("repro.perf.storage", "FastDataLayer", "put", "storage.layer_put", None),
    ("repro.perf.storage", "FastDataLayer", "get", "storage.layer_get", None),
    ("repro.perf.storage", "FastDataLayer", "_rebalance", "storage.repair", None),
    ("repro.perf.storage", "FastDataLayer", "_handoff", "storage.repair", None),
)


class Tracer:
    """Span recorder; a disabled tracer records nothing and patches nothing."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.phase = "setup"
        self.round = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object, bool]] = []

    # --------------------------------------------------------------- spans

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.phase, self.round, 0])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _exit(self, index: int, units: int = 0) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[UNITS] = units
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span the ``with`` body (no-op while the tracer is disabled)."""
        if not self.enabled:
            yield
            return
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    @contextmanager
    def phase_scope(self, phase: str, round_index: int = -1) -> Iterator[None]:
        """Tag spans recorded in the body with a phase and round number."""
        previous = (self.phase, self.round)
        self.phase, self.round = phase, round_index
        try:
            yield
        finally:
            self.phase, self.round = previous

    # ------------------------------------------------------------- patching

    def _wrapper(self, original: Callable, name: str, units) -> Callable:
        def traced(*args, **kwargs):
            index = self._enter(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._exit(
                    index,
                    units(args, result) if units and result is not None else 0,
                )

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        """Rebind every trace point to a timing wrapper (traced runs only)."""
        if not self.enabled or self._patched:
            return
        for module_name, class_name, attr, name, units in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrapper(raw.__func__, name, units))
            else:
                patched = self._wrapper(raw, name, units)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` rebound."""
        while self._patched:
            owner, attr, raw, own = self._patched.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)  # fall back to the inherited attribute

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ---------------------------------------------------------- aggregation

    def select(self, phases: Sequence[str]) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s[PHASE] in phases]

    def self_times(self, indices: Sequence[int]) -> Dict[str, float]:
        """Self seconds per span name over the selected spans."""
        chosen = set(indices)
        covered = [0.0] * len(self.spans)
        for i in chosen:
            parent = self.spans[i][PARENT]
            if parent in chosen:
                covered[parent] += self.spans[i][END] - self.spans[i][START]
        out: Dict[str, float] = {}
        for i in chosen:
            span = self.spans[i]
            out[span[NAME]] = out.get(span[NAME], 0.0) + (
                span[END] - span[START] - covered[i]
            )
        return out

    def calls(self, indices: Sequence[int]) -> Dict[str, int]:
        """Number of spans per name."""
        out: Dict[str, int] = {}
        for i in indices:
            name = self.spans[i][NAME]
            out[name] = out.get(name, 0) + 1
        return out

    def units(self, indices: Sequence[int]) -> Dict[str, int]:
        """Sum of the spans' work counts per name."""
        out: Dict[str, int] = {}
        for i in indices:
            span = self.spans[i]
            out[span[NAME]] = out.get(span[NAME], 0) + span[UNITS]
        return out

    def durations(self, indices: Sequence[int], name: str) -> List[float]:
        return [
            self.spans[i][END] - self.spans[i][START]
            for i in indices
            if self.spans[i][NAME] == name
        ]

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, phase, round, units]``."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "phase", "round", "units"],
                    "spans": self.spans,
                },
                handle,
            )
