"""Vectorized node-to-node latency over the transit-stub matrix.

The scalar latency oracle is
:meth:`repro.topology.transit_stub.TransitStubTopology.node_latency`:
``2 * HOST_STUB_MS + matrix[router(a), router(b)]`` per hop, one Python
call per hop.  A :class:`LatencyTable` freezes the attachment into numpy
form — a sorted node-id array plus an aligned ``int32`` router-index array
over the topology's ``float32`` all-pairs matrix — so the batch routing
kernels (:mod:`repro.perf.kernels`) and the measurement harness can
accumulate per-hop latency with two gathers per frontier instead of a
Python call per hop.

Bit-for-bit contract: every per-hop value is computed as
``float64(2 * host_ms) + float64(matrix[ra, rb])`` — exactly the widening
the scalar oracle performs — and every per-route total is accumulated as a
strict left fold in hop order, so batch totals equal
``Route.latency(topology.node_latency)`` to the last bit (asserted by
:func:`repro.verify.oracles.compare_routing` and the latency baseline).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LatencyTable", "latency_table_of"]


class LatencyTable:
    """Frozen node→router attachment over an all-pairs router latency matrix.

    ``node_ids`` is sorted ascending; ``routers[i]`` is the router index of
    ``node_ids[i]`` into ``matrix`` (``float32``, milliseconds).  Each hop
    between distinct attached nodes costs ``2 * host_ms`` access latency
    plus the router shortest path; a self-hop costs 0.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        routers: Sequence[int],
        matrix: np.ndarray,
        host_ms: float = 1.0,
    ) -> None:
        ids = np.asarray(node_ids, dtype=np.uint64)
        if ids.size and np.any(ids[1:] <= ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            routers = np.asarray(routers, dtype=np.int64)[order]
        self.node_ids = ids
        self.routers = np.asarray(routers, dtype=np.int32)
        if self.routers.shape != self.node_ids.shape:
            raise ValueError(
                f"{self.node_ids.size} node ids vs {self.routers.size} routers"
            )
        self.matrix = matrix
        self.host_ms = float(host_ms)
        #: The per-hop access-link term, widened once (``2 * HOST_STUB_MS``).
        self.hop2_ms = np.float64(2.0 * self.host_ms)
        # aligned_routers holds one (ids array, routers) pair, by identity.
        self._aligned: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_topology(
        cls, topology, node_ids: Optional[Sequence[int]] = None
    ) -> "LatencyTable":
        """Freeze a :class:`TransitStubTopology`'s current attachment.

        ``node_ids`` defaults to every attached node; a subset is fine.
        """
        if node_ids is None:
            node_ids = sorted(topology._attachment)
        routers = [topology.router_of(n) for n in node_ids]
        from ..topology.transit_stub import HOST_STUB_MS

        return cls(node_ids, routers, topology._latency, host_ms=HOST_STUB_MS)

    @property
    def size(self) -> int:
        return int(self.node_ids.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's arrays (ids + routers + matrix).

        Each grid worker that builds a topology holds its own table, so a
        ``--jobs N`` grid holds up to ``N`` times these bytes.
        """
        return int(
            self.node_ids.nbytes + self.routers.nbytes + self.matrix.nbytes
        )

    # ------------------------------------------------------------- lookups

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Index of each value in ``node_ids`` (clear error on strangers)."""
        pos = np.searchsorted(self.node_ids, values)
        pos = np.minimum(pos, max(self.node_ids.size - 1, 0))
        bad = (
            self.node_ids[pos] != values
            if self.node_ids.size
            else np.ones(values.shape, dtype=bool)
        )
        if np.any(bad):
            missing = int(np.asarray(values)[bad][0])
            raise KeyError(
                f"node {missing} is not in this latency table "
                f"(attach it to the topology before routing)"
            )
        return pos.astype(np.int64)

    def aligned_routers(self, ids: np.ndarray) -> np.ndarray:
        """Router indices aligned with an arbitrary sorted id array.

        This is what the batch kernels call once per routing batch with
        their compiled ``ids`` array: the result is position-aligned, so
        the per-hop gather is ``routers[position]`` with no id lookups.
        The last array's result is held, keyed by the array's identity,
        so batches over one network align once and a new network's array
        replaces the old one's.
        """
        held = self._aligned
        if held is None or held[0] is not ids:
            self._aligned = held = (ids, self.routers[self.positions(ids)])
        return held[1]

    # ------------------------------------------------------------ latencies

    def node_latency(self, a: int, b: int) -> float:
        """Scalar end-to-end latency (same semantics as the topology's)."""
        if a == b:
            return 0.0
        pos = self.positions(np.asarray([a, b], dtype=np.uint64))
        ra, rb = self.routers[pos[0]], self.routers[pos[1]]
        return float(self.hop2_ms + np.float64(self.matrix[ra, rb]))

    #: A table is itself usable wherever a ``(a, b) -> ms`` callable is.
    __call__ = node_latency

    def hop_ms(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Vectorized per-pair latency (``float64`` ms; 0 where ``a == b``)."""
        a = np.asarray(a_ids, dtype=np.uint64)
        b = np.asarray(b_ids, dtype=np.uint64)
        ra = self.routers[self.positions(a)]
        rb = self.routers[self.positions(b)]
        out = self.hop2_ms + self.matrix[ra, rb].astype(np.float64)
        out[a == b] = 0.0
        return out

    def path_ms(self, path: Sequence[int]) -> float:
        """Latency of one hop path, bit-identical to the scalar fold.

        One vectorized gather for the hop values, then a left fold in hop
        order (Python ``sum`` over float64 values) — the exact addition
        sequence of :meth:`repro.core.routing.Route.latency`.
        """
        if len(path) < 2:
            return 0.0
        nodes = np.asarray(path, dtype=np.uint64)
        vals = self.hop_ms(nodes[:-1], nodes[1:])
        return sum(vals.tolist())


def latency_table_of(
    latency_fn: Optional[Callable[[int, int], float]]
) -> Optional[LatencyTable]:
    """The vectorized table behind ``latency_fn``, when one exists.

    Recognizes a :class:`LatencyTable` passed directly, and the common case
    of a bound ``node_latency`` method of a
    :class:`~repro.topology.transit_stub.TransitStubTopology` (or anything
    else exposing ``latency_table()``) — the scalar per-hop oracle then has
    an exact vectorized twin that batch code can gather from.
    """
    if latency_fn is None:
        return None
    if isinstance(latency_fn, LatencyTable):
        return latency_fn
    owner = getattr(latency_fn, "__self__", None)
    if (
        owner is not None
        and getattr(latency_fn, "__name__", "") == "node_latency"
        and hasattr(owner, "latency_table")
    ):
        try:
            return owner.latency_table()
        except (KeyError, ValueError):
            return None
    return None
