"""The frontier batcher: slot-based SoA state for in-flight lookups.

:class:`FrontierBatcher` owns one structure-of-arrays buffer with a slot
per admitted lookup runner (a lookup and, while hedged, its duplicate).
The runtime's tick gathers the RUNNING slots into contiguous arrays, steps
them through one fused kernel call, and scatters results back — capacity
grows by doubling and freed slots are recycled, so sustained serving never
reallocates and the buffer admits millions of in-flight lookups.

:func:`compile_protocol_view` freezes a live
:class:`~repro.simulation.protocol.SimulatedCrescendo` into the CSR form
the kernels step over — same decision inputs as the scalar
:class:`~repro.simulation.async_lookup.AsyncEngine` (each node's
``routing_contacts()``, liveness applied at step time), which is what
makes the two engines differentially comparable hop for hop.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..perf.kernels import CompiledNetwork, _in_sorted

__all__ = ["FREE", "RUNNING", "WAITING", "FrontierBatcher", "compile_protocol_view"]

FREE, RUNNING, WAITING = 0, 1, 2

_GROW = 2


class FrontierBatcher:
    """Slot-recycling SoA buffer; one row per in-flight lookup runner."""

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(int(capacity), 16)
        self.ticket = np.full(capacity, -1, dtype=np.int64)
        self.src = np.zeros(capacity, dtype=np.uint64)
        #: Where the runner stands: its node's position in the ids of the
        #: view being served, -1 when that view does not hold the node.
        self.pos = np.zeros(capacity, dtype=np.int64)
        #: The node id ``pos`` was last resolved from (submit, retry, hedge,
        #: view swap) — current only until the runner hops; read it through
        #: :meth:`ServeRuntime.node_ids`.
        self.cur = np.zeros(capacity, dtype=np.uint64)
        self.dest = np.zeros(capacity, dtype=np.uint64)
        self.hops = np.zeros(capacity, dtype=np.int64)
        self.elapsed_ms = np.zeros(capacity, dtype=np.float64)
        self.deadline_ms = np.zeros(capacity, dtype=np.float64)
        self.attempt = np.zeros(capacity, dtype=np.int32)
        self.wait = np.zeros(capacity, dtype=np.int32)
        #: Slot index of the hedge sibling (-1 when unhedged).
        self.twin = np.full(capacity, -1, dtype=np.int64)
        self.is_hedge = np.zeros(capacity, dtype=bool)
        self.state = np.zeros(capacity, dtype=np.uint8)
        self._free = list(range(capacity - 1, -1, -1))

    @property
    def capacity(self) -> int:
        return int(self.state.size)

    @property
    def in_flight(self) -> int:
        """Slots currently RUNNING or WAITING."""
        return self.capacity - len(self._free)

    def _grow(self, need: int) -> None:
        old = self.capacity
        new = max(old * _GROW, old + need)
        for name in (
            "ticket", "src", "pos", "cur", "dest", "hops", "elapsed_ms",
            "deadline_ms", "attempt", "wait", "twin", "is_hedge", "state",
        ):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self.ticket[old:] = -1
        self.twin[old:] = -1
        self._free.extend(range(new - 1, old - 1, -1))

    def alloc(self, n: int) -> np.ndarray:
        """Claim ``n`` free slots (grows the buffer as needed)."""
        if len(self._free) < n:
            self._grow(n - len(self._free))
        # The free list is a stack: the last-freed slot goes out first.
        cut = len(self._free) - n
        slots = np.asarray(self._free[cut:][::-1], dtype=np.int64)
        del self._free[cut:]
        return slots

    def release(self, slots: np.ndarray) -> None:
        """Return slots to the free list (ticket and twin link cleared)."""
        self.state[slots] = FREE
        self.ticket[slots] = -1
        self.twin[slots] = -1
        self._free.extend(slots.tolist())

    def slots_in(self, state: int) -> np.ndarray:
        """Indices of every slot currently in ``state`` (ascending)."""
        return np.flatnonzero(self.state == state)


def compile_protocol_view(
    net,
) -> Tuple[CompiledNetwork, np.ndarray]:
    """Freeze a live protocol net into ``(CompiledNetwork, live-id array)``.

    The CSR rows are each live node's ``routing_contacts()`` (fingers plus
    leaf-set entries, stale links included — liveness is the *step-time*
    filter, exactly as ``AsyncEngine`` applies it), restricted to ids the
    net still remembers.  Dead and suspended nodes keep an id row (so
    in-flight lookups parked on them resolve as lost, not as key errors)
    but no contacts.  In-flight state is positions in one view's ``ids``:
    recompile after churn and hand the pair to
    :meth:`~repro.serve.runtime.ServeRuntime.set_view`, which re-resolves
    its open slots by node id when — and only when — ``ids`` is a new
    array (a crash-only refresh hands back the very same one).

    The cost follows the net, not its population: the pair returned last
    time is held on the net, and only the rows of the ids its ``_touch``
    and membership hooks reported since are rebuilt and spliced into it
    (the first call finds nothing held, so every row is such a row).  A
    net nothing was written to gets the very same pair back.  Every array
    handed out is a read-only snapshot that no later call edits.
    """
    held = net._view
    dirty = net._view_dirty
    rebuilt = 0
    if held is None or dirty:
        held, rebuilt = _refresh_view(net, held)
        net._view = held
        dirty.clear()
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("serve.view.refreshes").inc()
        registry.counter("serve.view.rows_rebuilt").inc(rebuilt)
        registry.counter("serve.view.rows_reused").inc(held[0].n - rebuilt)
    return held


def _refresh_view(net, held):
    """The view of ``net`` given the one ``held`` (or none) for it.

    Every id written since ``held`` was taken has a row that may differ:
    still known (row rebuilt, empty unless alive) or forgotten (row
    dropped).  Returns the new pair and the number of rows rebuilt.
    """
    if held is None:
        order = sorted(net.nodes)
        old_ids = old_neighbors = np.zeros(0, dtype=np.uint64)
        old_indptr = np.zeros(1, dtype=np.int64)
        old_pos = np.zeros(0, dtype=np.int64)
    else:
        order = sorted(net._view_dirty)
        old = held[0]
        old_ids, old_indptr = old.ids, old.indptr
        old_neighbors, old_pos = old.neighbors, old.nbr_pos
    known = net.nodes
    flat: List[int] = []
    ends: List[int] = []
    here: List[bool] = []
    for nid in order:
        node = known.get(nid)
        here.append(node is not None)
        if node is not None and node.alive:
            flat.extend(sorted(c for c in node.routing_contacts() if c in known))
        ends.append(len(flat))
    fresh = np.asarray(flat, dtype=np.uint64)
    end = np.asarray(ends, dtype=np.int64)
    start = np.zeros_like(end)
    start[1:] = end[:-1]
    written = np.asarray(order, dtype=np.uint64)
    is_here = np.asarray(here, dtype=bool)
    was_here = _in_sorted(old_ids, written)
    carried = ~_in_sorted(written, old_ids)  # old rows nothing wrote to
    same_ids = held is not None and np.array_equal(is_here, was_here)
    if same_ids:
        ids = old_ids
    else:
        ids = np.union1d(old_ids[carried], written[is_here])
    # Row lengths: the rows carried over, then the rebuilt ones.
    counts = np.zeros(ids.size, dtype=np.int64)
    counts[np.searchsorted(ids, old_ids[carried])] = np.diff(old_indptr)[carried]
    rows = np.searchsorted(ids, written[is_here])
    counts[rows] = (end - start)[is_here]
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Where each written id's old row sits in the flat arrays (an empty
    # range at its insertion point when the old view did not have it).
    at = np.searchsorted(old_ids, written)
    cuts = list(
        zip(old_indptr[at].tolist(), old_indptr[at + was_here].tolist(), start.tolist())
    )
    neighbors = _splice(old_neighbors, fresh, cuts)
    if same_ids:
        nbr_pos = _splice(
            old_pos, np.searchsorted(ids, fresh).astype(np.int64), cuts
        )
    else:
        nbr_pos = np.searchsorted(ids, neighbors).astype(np.int64)
    alive = np.asarray(net.live_view(), dtype=np.uint64)
    for arr in (ids, indptr, neighbors, nbr_pos, alive):
        arr.flags.writeable = False
    compiled = CompiledNetwork.from_arrays(
        metric="ring",
        bits=net.space.bits,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=nbr_pos,
    )
    if same_ids:
        compiled.carry_table(held[0], rows)
    return (compiled, alive), int(rows.size)


def _splice(old: np.ndarray, fresh: np.ndarray, cuts) -> np.ndarray:
    """``old`` with each ``[lo, hi)`` of ``cuts`` replaced by fresh rows.

    ``cuts`` ascend, each ``(lo, hi, s)`` with its fresh row starting at
    ``fresh[s]`` and ending where the next one starts, so rows rebuilt
    next to each other go in as one piece (a first compile is one piece).
    """
    pieces = []
    done = run = 0
    for lo, hi, s in cuts:
        if lo > done:
            pieces += (fresh[run:s], old[done:lo])
            run = s
        done = hi
    pieces += (fresh[run:], old[done:])
    return np.concatenate(pieces)
