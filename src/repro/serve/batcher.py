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

from typing import Tuple

import numpy as np

from ..perf.kernels import CompiledNetwork

__all__ = ["FREE", "RUNNING", "WAITING", "FrontierBatcher", "compile_protocol_view"]

FREE, RUNNING, WAITING = 0, 1, 2

_GROW = 2


class FrontierBatcher:
    """Slot-recycling SoA buffer; one row per in-flight lookup runner."""

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(int(capacity), 16)
        self.ticket = np.full(capacity, -1, dtype=np.int64)
        self.src = np.zeros(capacity, dtype=np.uint64)
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
            "ticket", "src", "cur", "dest", "hops", "elapsed_ms",
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
    but no contacts.  Recompile after churn and keep stepping the same
    :class:`~repro.perf.kernels.InFlightFrontier` — its state is id-based.
    """
    ids = np.asarray(sorted(net.nodes), dtype=np.uint64)
    known = net.nodes
    live = set(net.live_view())
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    flat: list = []
    for i, nid in enumerate(ids.tolist()):
        if nid in live:
            flat.extend(
                sorted(c for c in known[nid].routing_contacts() if c in known)
            )
        indptr[i + 1] = len(flat)
    neighbors = np.asarray(flat, dtype=np.uint64)
    nbr_pos = np.searchsorted(ids, neighbors).astype(np.int64)
    compiled = CompiledNetwork.from_arrays(
        metric="ring",
        bits=net.space.bits,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=nbr_pos,
    )
    alive_arr = np.asarray(net.live_view(), dtype=np.uint64)
    return compiled, alive_arr
