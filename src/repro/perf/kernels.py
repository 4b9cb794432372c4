"""Vectorized batch routing kernels over a CSR link-table layout.

:func:`compile_network` adopts a built :class:`~repro.core.network.DHTNetwork`'s
CSR (:meth:`~repro.core.network.DHTNetwork.link_csr`) as numpy arrays —
sorted node ids, per-node offsets into the link arrays, the index of every
neighbor back into the id array, and the neighbor ids themselves — plus
one padded neighbor matrix per metric that turns the greedy step of each
scalar engine into a gather, a compare and an ``argmax`` over the whole
active batch:

- ring metric: a per-node matrix of clockwise neighbor distances, sorted
  descending and left-aligned with zero padding (the last column is always
  a zero pointing back at the node).  The non-overshooting clockwise
  candidate of :func:`repro.core.routing._best_ring_step` is simply the
  first column ``<= remaining``, found with one ``argmax`` per hop;
  "no valid step" falls out as a zero-distance self-step, so the hop has
  no wrap, empty-list or validity fixups at all.
- XOR metric: a per-node matrix of neighbor ids, ascending and
  left-aligned, padded with the largest id of the space (pointing back at
  the node).  The first column ``>= key`` and the one before it, each
  wrapping round the row's real columns, are the successor/predecessor
  pair of :func:`repro.core.routing._best_xor_step`.

Both unfiltered hops cost a few vector ops per hop, and no binary search,
over only the still-active routes, which is what makes the kernels an
order of magnitude faster than the scalar engines (see
``docs/performance.md``).

Routing proceeds frontier-at-a-time, and there is one hop per metric:
:meth:`CompiledNetwork.frontier_step`, the resumable single step the
serving runtime ticks.  A whole route is that step looped until nothing
moves (:meth:`CompiledNetwork.route`, path capture and latency included),
filtered or not — there is no separate whole-route loop.

- Ring: liveness belongs to a view.  :meth:`CompiledNetwork.bind_alive`
  drops dead neighbors from the distance matrix once per view, so every
  hop, filtered or not, is the same gather / compare / ``argmax``
  (:func:`_ring_hop`, shared with the storage walk of
  :meth:`repro.perf.storage.CompiledStore.batch_get`).
- XOR: unfiltered, the successor/predecessor pair above.  Filtered, the
  scalar engine scans every live neighbor, so the step expands the
  frontier's neighbor lists flat and reduces per segment with
  ``np.minimum.reduceat`` (:meth:`CompiledNetwork._xor_step_alive`).

Every branch replicates the corresponding scalar branch exactly, so batch
results are hop-for-hop identical to :func:`~repro.core.routing.route_ring`
and :func:`~repro.core.routing.route_xor` (property-tested across all ten
DHT families in ``tests/test_perf_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.network import DHTNetwork
from ..core.routing import MAX_HOPS, Route, _sorted_live
from ..obs import metrics as obs_metrics
from ..obs.profile import PROFILER

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .latency import LatencyTable

__all__ = [
    "BatchResult",
    "CompiledNetwork",
    "InFlightFrontier",
    "batch_route",
    "compile_network",
]

_U64 = np.uint64
_ZERO = np.uint64(0)
_ONE = np.uint64(1)
#: Sentinel larger than any XOR distance (id spaces are capped below 64 bits
#: by the compile guard, so real distances never reach it).
_FAR = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class BatchResult:
    """Outcome of one batch routing call, aligned index-for-index.

    ``terminals`` holds the node each route stopped at; ``success`` mirrors
    the scalar engines' success flag (so *delivery* of a lookup for key ``k``
    is ``success & (terminals == k)``, same as the sampling harness checks).
    ``paths`` is only populated when requested — hop counting alone never
    materializes paths.  ``latency_ms`` is populated when the route call
    was given a :class:`~repro.perf.latency.LatencyTable`: per-route
    overlay latency in ms, accumulated per hop in hop order (float64 left
    fold), bit-identical to the scalar
    :meth:`~repro.core.routing.Route.latency` total — without ever
    materializing paths.
    """

    sources: np.ndarray
    dest_keys: np.ndarray
    hops: np.ndarray
    terminals: np.ndarray
    success: np.ndarray
    paths: Optional[List[List[int]]] = None
    latency_ms: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return int(self.sources.size)

    @property
    def delivered(self) -> int:
        """Routes that succeeded *and* terminated on their destination key."""
        return int(np.count_nonzero(self.success & (self.terminals == self.dest_keys)))

    def routes(self) -> Iterator[Route]:
        """Reconstruct scalar :class:`Route` objects (requires ``paths=True``)."""
        if self.paths is None:
            raise ValueError("paths were not collected; route with paths=True")
        for path, ok, dest in zip(self.paths, self.success, self.dest_keys):
            yield Route(path, bool(ok), int(dest))


@dataclass
class InFlightFrontier:
    """Resumable in-flight lookup state for frontier-at-a-time serving.

    One row per lookup; the serving runtime (and any other caller that
    needs to interleave policy between hops) advances all not-yet-done
    rows exactly one greedy hop per :meth:`CompiledNetwork.step_frontier`
    call.  A whole route *is* this struct stepped to quiescence:
    :meth:`CompiledNetwork.route`, filtered or not, begins a frontier over
    its pairs and steps it until nothing moves.

    ``pos`` holds compiled *positions*, resolved once by
    :meth:`CompiledNetwork.begin_frontier`, so no hop searches for where
    it stands.  A position belongs to the ``ids`` of the view that began
    the frontier (``view.ids[state.pos]`` is the node id); ids are what
    survives a view swap, so a caller stepping one frontier across views
    whose ``ids`` differ re-resolves ``pos`` itself at each swap, as
    :meth:`repro.serve.runtime.ServeRuntime.set_view` does for its slots.
    """

    pos: np.ndarray  # int64 current node's position in ``ids`` per lookup
    dest: np.ndarray  # uint64 destination key per lookup
    hops: np.ndarray  # int64 hops taken so far
    done: np.ndarray  # bool: a terminal decision was reached
    success: np.ndarray  # bool: the scalar engines' verdict (valid where done)
    latency_ms: np.ndarray  # float64 strict left fold of per-hop ms


class CompiledNetwork:
    """A built network's link tables in CSR-style numpy form (read-only)."""

    def __init__(self, network: DHTNetwork) -> None:
        network.require_built()
        bits = network.space.bits
        n = network.size
        if bits + 1 + max(n - 1, 1).bit_length() > 64:
            raise ValueError(
                f"ring table sort keys need {bits} + 1 distance bits + "
                f"{max(n - 1, 1).bit_length()} row bits > 64"
            )
        # The network's own CSR, adopted as it stands.  Its index arrays are
        # int32 whenever the population and edge count fit — half the
        # memory traffic in the hot loops, half the bytes held.
        indptr, nbr_pos = network.link_csr()
        ids = network.id_array  # sorted ascending by construction
        self._adopt(network, network.metric, bits, ids, indptr, ids[nbr_pos], nbr_pos)

    def _adopt(
        self,
        network: Optional[DHTNetwork],
        metric: str,
        bits: int,
        ids: np.ndarray,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        nbr_pos: np.ndarray,
    ) -> None:
        self.n = int(ids.shape[0])
        if self.n == 0:
            raise ValueError("cannot compile an empty network")
        self.network = network
        self.metric = metric
        self.bits = int(bits)
        self.ids = ids
        self.indptr = indptr
        self.neighbors = neighbors
        self.nbr_pos = nbr_pos
        # The ring table sorts its links by ``(row << shift) | distance``.
        self.shift = np.uint64(self.bits + 1)
        self.mask = np.uint64((1 << self.bits) - 1)
        self._xor_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._ring_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._live_table: Optional[
            Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]
        ] = None
        self._carry: Optional[tuple] = None
        self._gaps: Optional[Tuple[Optional[np.ndarray], np.ndarray]] = None

    def _xor_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids2d, posflat)``: neighbor ids as a padded matrix (lazy).

        Row ``i`` holds node ``i``'s neighbor ids in CSR order (ascending)
        and left-aligned; the trailing padding slots (at least one per
        row: the width is the longest CSR row plus one) hold the largest
        id of the space, with their position entries pointing at the node
        itself.  The first column ``>= key`` therefore exists in every row
        — one ``argmax`` per hop — and is the successor of
        :func:`repro.core.routing._best_xor_step`; the column before it is
        the predecessor.  Dtypes follow :meth:`_build_ring_table`.

        Built on first use (the unfiltered XOR hop), so ring-metric
        networks never pay for it.
        """
        if self._xor_tables is None:
            n = self.n
            dt = np.uint32 if self.bits <= 32 else _U64
            pos_dt = np.int32 if n < 2**31 else np.intp
            counts = np.diff(self.indptr).astype(np.int64)
            width = int(counts.max()) + 1
            ids2d = np.full((n, width), self.mask, dtype=dt)
            pos2d = np.repeat(np.arange(n, dtype=pos_dt)[:, None], width, axis=1)
            own = np.repeat(np.arange(n, dtype=np.int64), counts)
            cols = np.arange(own.size) - np.repeat(self.indptr[:-1], counts)
            ids2d[own, cols] = self.neighbors
            pos2d[own, cols] = self.nbr_pos
            self._xor_tables = (ids2d, pos2d.ravel())
        return self._xor_tables

    def _build_ring_table(
        self,
        alive_arr: Optional[np.ndarray] = None,
        rows: Optional[np.ndarray] = None,
        base: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node clockwise distances as a padded sorted matrix.

        Row ``i`` holds node ``i``'s neighbor distances sorted *descending*
        and left-aligned; the trailing padding slots (at least one per row:
        the width is the longest CSR row plus one) are zero, with their
        position entries pointing at the node itself.
        The greedy ring step then needs no validity or wrap handling at
        all: the first column ``<= remaining`` — one ``argmax`` per hop,
        guaranteed to exist by the trailing zero — is the best
        non-overshooting neighbor, and when no neighbor qualifies it is a
        zero-distance self-step, which doubles as the finished/stuck
        signal.

        ``alive_arr`` (sorted ids) leaves every other neighbor out of the
        table; a row keeps whatever survives, its owner's own liveness
        aside.  ``rows`` (ascending positions) with ``base``, the table of
        a view over the same ``ids``, builds those rows only and copies the
        rest from ``base`` — the same table at the cost of what differs.

        Returns ``(dist2d, posflat)`` where the distance dtype is
        ``uint32`` when the id space fits (half the memory traffic of the
        hot loop) and ``uint64`` otherwise, and ``posflat`` is the
        row-major flattened position matrix — ``int32`` below 2**31 nodes
        (the largest ring table by far; position values always fit), with
        the hot-loop position buffers following its dtype.
        """
        n = self.n
        dt = np.uint32 if self.bits <= 32 else _U64
        pos_dt = np.int32 if n < 2**31 else np.intp
        counts = np.diff(self.indptr).astype(np.int64)
        width = int(counts.max()) + 1
        dist2d = np.zeros((n, width), dtype=dt)
        pos2d = np.repeat(np.arange(n, dtype=pos_dt)[:, None], width, axis=1)
        if base is None:
            own = np.repeat(np.arange(n, dtype=np.int64), counts)
            neighbors, nbr_pos = self.neighbors, self.nbr_pos
        else:
            w = min(width, base[0].shape[1])
            dist2d[:, :w] = base[0][:, :w]
            pos2d[:, :w] = base[1].reshape(n, -1)[:, :w]
            dist2d[rows] = 0
            pos2d[rows] = rows[:, None]
            took = counts[rows]
            own = np.repeat(rows, took)
            edges = np.arange(own.size) + np.repeat(
                self.indptr[rows] - (np.cumsum(took) - took), took
            )
            neighbors, nbr_pos = self.neighbors[edges], self.nbr_pos[edges]
        if alive_arr is not None:
            keep = _in_sorted(alive_arr, neighbors)
            own, neighbors, nbr_pos = own[keep], neighbors[keep], nbr_pos[keep]
        counts = np.bincount(own, minlength=n)
        E = int(own.size)
        if E:
            dists = (neighbors - self.ids[own]) & self.mask
            order = np.argsort(
                (own.astype(_U64) << self.shift) | dists, kind="stable"
            )
            # The sorted layout keeps CSR segment boundaries, so target
            # slots enumerate each segment right-to-left from its last
            # column; only the values are permuted by ``order``.
            rank = np.arange(E, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            cols = np.repeat(counts, counts) - 1 - rank
            dist2d[own, cols] = dists[order].astype(dt)
            pos2d[own, cols] = nbr_pos[order]
        return dist2d, pos2d.ravel()

    def carry_table(self, older: "CompiledNetwork", rows: np.ndarray) -> None:
        """Let the next :meth:`bind_alive` start from ``older``'s live table.

        ``older`` is a view over the very same ``ids`` whose CSR rows equal
        this one's except at the ascending positions ``rows``.
        """
        if older._live_table is not None:
            self._carry = (rows,) + older._live_table

    def bind_alive(self, alive_arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Build and hold the ring table of the view ``alive_arr`` defines.

        ``alive_arr`` is a strictly increasing uint64 id array.  Liveness
        is a property of a view, not of a hop: dead neighbors are dropped
        from the table once (one binary search per link), so every hop
        under the view is the same gather / compare / ``argmax`` as the
        unfiltered step.  One table is held at a time, keyed by the
        array's *identity*; call this again after changing the live set,
        with a new array or the same one.

        After :meth:`carry_table` only the rows that differ from the older
        view's table are built: those whose CSR row changed and those that
        list an id whose liveness flipped between the two live sets.
        """
        rows = base = None
        if self._carry is not None:
            rows, was_alive, base = self._carry
            self._carry = None
            flipped = _in_sorted(was_alive, self.ids) != _in_sorted(
                alive_arr, self.ids
            )
            listing = np.flatnonzero(flipped[self.nbr_pos])
            rows = np.union1d(
                rows, np.searchsorted(self.indptr, listing, side="right") - 1
            )
        table = self._build_ring_table(alive_arr, rows, base)
        self._live_table = (alive_arr, table)
        return table

    def _step_table(
        self, alive_arr: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(dist2d, posflat)`` a single ring step gathers from.

        Without a filter that is the table over every link, built on first
        use and kept; with one, the table :meth:`bind_alive` holds.
        """
        if alive_arr is None:
            if self._ring_tables is None:
                self._ring_tables = self._build_ring_table()
            return self._ring_tables
        held = self._live_table
        if held is not None and held[0] is alive_arr:
            return held[1]
        return self.bind_alive(alive_arr)

    # ------------------------------------------------------------- arrays

    @classmethod
    def from_arrays(
        cls,
        *,
        metric: str,
        bits: int,
        ids: np.ndarray,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        nbr_pos: np.ndarray,
        network: Optional[DHTNetwork] = None,
    ) -> "CompiledNetwork":
        """Wrap pre-built CSR arrays without touching a Python link table.

        This is how the serving view compiler
        (:func:`repro.serve.batcher.compile_protocol_view`) produces a usable
        compiled network: the arrays are adopted as-is (zero-copy), the
        metric search structures are built lazily on first use, and
        ``network`` stays ``None`` unless the caller has one.
        """
        self = cls.__new__(cls)
        self._adopt(network, metric, bits, ids, indptr, neighbors, nbr_pos)
        return self

    # ------------------------------------------------------------- plumbing

    def _locate(self, values: np.ndarray) -> np.ndarray:
        """Index of each value in ``ids``, ``-1`` where it is no node's id."""
        pos = np.minimum(np.searchsorted(self.ids, values), self.n - 1)
        return np.where(self.ids[pos] == values, pos, -1)

    def _positions(self, values: np.ndarray) -> np.ndarray:
        """Index of each value in ``ids`` (raises on unknown node ids)."""
        pos = self._locate(values)
        if np.any(pos < 0):
            raise KeyError(f"node {int(values[pos < 0][0])} not in network")
        return pos

    def _latency_state(
        self, latency: Optional["LatencyTable"]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.float64]]:
        """``(router-per-position, matrix, 2*host_ms)`` for per-hop gathers.

        ``aligned_routers`` maps every compiled position straight to its
        router index, so each hop's latency is two int gathers plus one
        float gather — no per-hop id lookups, no Python-level calls.
        """
        if latency is None:
            return None
        return (
            latency.aligned_routers(self.ids),
            latency.matrix,
            latency.hop2_ms,
        )

    # ------------------------------------------------------- terminal checks

    def _ring_gaps(self, alive_arr: Optional[np.ndarray]) -> np.ndarray:
        """Clockwise distance from each position's id to the next live id.

        Vectorized ``_is_responsible`` as a per-view table: a lookup stuck
        at position ``c`` is at its key's responsible node exactly when
        ``remaining < gaps[c]`` — zero at a dead position, the whole ring
        where one live node is its own successor (the wrap case).  Built
        on the first stuck lookup under a view and held, like the
        :meth:`bind_alive` table, by the live array's identity.
        """
        held = self._gaps
        if held is None or held[0] is not alive_arr:
            live = self.ids if alive_arr is None else alive_arr
            at = self._locate(live)
            gap = ((np.roll(live, -1) - live - _ONE) & self.mask) + _ONE
            gaps = np.zeros(self.n, dtype=_U64)
            gaps[at[at >= 0]] = gap[at >= 0]
            self._gaps = held = (alive_arr, gaps)
        return held[1]

    def _xor_closest(
        self, cur_ids: np.ndarray, keys: np.ndarray, alive_arr: Optional[np.ndarray]
    ) -> np.ndarray:
        """Vectorized ``_is_xor_closest``: nearest is adjacent to the key."""
        ref = self.ids if alive_arr is None else alive_arr
        if ref.size == 0:
            return np.zeros(cur_ids.shape, dtype=bool)
        pos = np.searchsorted(ref, keys, side="left").astype(np.int64)
        succ = ref[pos % ref.size]
        pred = ref[(pos - 1) % ref.size]
        best = np.minimum(succ ^ keys, pred ^ keys)
        return (cur_ids ^ keys) == best

    # -------------------------------------------------------------- xor step

    def _xor_step_alive(
        self, c: np.ndarray, d: np.ndarray, cur_dist: np.ndarray, alive_arr: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Filtered XOR step: min live XOR distance if strictly closer.

        A scan, as in the scalar engine: every neighbor list of the
        frontier ``c`` is expanded flat (``flat`` indexes ``neighbors``)
        and reduced per segment.  No per-view table can stand in: the pair
        bracketing the key in a dead-filtered list is not the XOR-nearest
        live neighbor (it differs on 10-16 % of random keys over the four
        XOR families' lists with a quarter of the nodes dead).
        """
        nxt = np.zeros(c.shape, dtype=np.int64)
        ok = np.zeros(c.shape, dtype=bool)
        start = self.indptr[c]
        counts = self.indptr[c + 1] - start
        nz = np.nonzero(counts > 0)[0]  # frontier rows with neighbors at all
        if nz.size == 0:
            return nxt, ok
        cnz = counts[nz]
        seg_starts = np.zeros(nz.size, dtype=np.int64)
        np.cumsum(cnz[:-1], out=seg_starts[1:])
        flat = (
            np.arange(int(cnz.sum()), dtype=np.int64)
            - np.repeat(seg_starts, cnz)
            + np.repeat(start[nz], cnz)
        )
        cand = self.neighbors[flat]
        dist = cand ^ np.repeat(d[nz], cnz)
        valid = _in_sorted(alive_arr, cand) & (dist < np.repeat(cur_dist[nz], cnz))
        score = np.where(valid, dist, _FAR)
        best = np.minimum.reduceat(score, seg_starts)
        prog = best != _FAR
        if np.any(prog):
            hit = (score == np.repeat(best, cnz)) & np.repeat(prog, cnz)
            rows = nz[np.repeat(np.arange(nz.size), cnz)[hit]]
            nxt[rows] = self.nbr_pos[flat[hit]]
            ok[rows] = True
        return nxt, ok

    # --------------------------------------------------------------- routing

    def route_ring(
        self,
        sources: Sequence[int],
        dest_keys: Sequence[int],
        alive: Optional[Set[int]] = None,
        paths: bool = False,
        latency: Optional["LatencyTable"] = None,
    ) -> BatchResult:
        """Batch greedy clockwise routing, identical to ``route_ring``."""
        src, dest = _as_batch(sources, dest_keys)
        return self._route_stepped("ring", src, dest, alive, paths, latency)

    def route_xor(
        self,
        sources: Sequence[int],
        dest_keys: Sequence[int],
        alive: Optional[Set[int]] = None,
        paths: bool = False,
        latency: Optional["LatencyTable"] = None,
    ) -> BatchResult:
        """Batch greedy XOR routing, identical to ``route_xor``."""
        src, dest = _as_batch(sources, dest_keys)
        return self._route_stepped("xor", src, dest, alive, paths, latency)

    def _route_stepped(
        self,
        metric: str,
        src: np.ndarray,
        dest: np.ndarray,
        alive: Optional[Set[int]],
        paths: bool,
        latency: Optional["LatencyTable"],
    ) -> BatchResult:
        """Whole routes: a frontier stepped by ``metric`` to quiescence.

        So what ``compare_routing`` holds to the scalar engines is the step
        the serving runtime ticks, filtered or not, and either router runs
        on any network (the storage walk's pointer fetches route by ring on
        XOR families too).  A filtered call binds a ring table for its fresh
        ``alive`` array (:meth:`bind_alive`) in place of any the view held;
        a runtime serving the view rebuilds its own on its next tick.
        """
        alive_arr = (
            None if alive is None else np.asarray(_sorted_live(alive), dtype=_U64)
        )
        lat_state = self._latency_state(latency)
        state = self.begin_frontier(src, dest)
        path_lists = [[int(s)] for s in src] if paths else None
        for step in range(1, MAX_HOPS + 2):
            if self._advance(metric, state, alive_arr, lat_state) == 0:
                break
            if path_lists is not None:
                # Rows stop for good, so the movers of step k have k hops.
                movers = np.flatnonzero(state.hops == step)
                stops = self.ids[state.pos[movers]].tolist()
                for ri, nid in zip(movers.tolist(), stops):
                    path_lists[ri].append(nid)
        else:
            raise RuntimeError(
                f"routing exceeded {MAX_HOPS} hops: likely a broken network"
            )
        lat = state.latency_ms if latency is not None else None
        return self._result(
            src, dest, state.hops, self.ids[state.pos], state.success, path_lists, lat
        )

    def route(
        self,
        sources: Sequence[int],
        dest_keys: Sequence[int],
        alive: Optional[Set[int]] = None,
        paths: bool = False,
        latency: Optional["LatencyTable"] = None,
    ) -> BatchResult:
        """Route with the engine matching the network's declared metric."""
        if self.metric == "ring":
            return self.route_ring(
                sources, dest_keys, alive=alive, paths=paths, latency=latency
            )
        if self.metric == "xor":
            return self.route_xor(
                sources, dest_keys, alive=alive, paths=paths, latency=latency
            )
        raise ValueError(f"unknown metric {self.metric!r}")

    # ------------------------------------------------- frontier stepping

    def begin_frontier(
        self, sources: Sequence[int], dest_keys: Sequence[int]
    ) -> InFlightFrontier:
        """Fresh in-flight state for ``(source, key)`` pairs: no hops yet,
        each source's position searched for here, once."""
        src, dest = _as_batch(sources, dest_keys)
        m = src.size
        return InFlightFrontier(
            pos=self._positions(src),
            dest=dest,
            hops=np.zeros(m, dtype=np.int64),
            done=np.zeros(m, dtype=bool),
            success=np.zeros(m, dtype=bool),
            latency_ms=np.zeros(m, dtype=np.float64),
        )

    def frontier_step(
        self,
        pos: np.ndarray,
        dest: np.ndarray,
        alive_arr: Optional[np.ndarray] = None,
        lat_state=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Advance every lookup exactly one greedy hop (pure, resumable).

        The single-step entry point behind the serving runtime: one call
        is one frontier tick by the network's declared metric.  Its body,
        :meth:`_step`, is the only hop in this module: :meth:`route` loops
        it, filtered or not, without going through this method.  The ring
        step is the gather / compare / ``argmax`` of :func:`_ring_hop`
        either way; only the table differs (:meth:`bind_alive`).

        A lookup is where it stands: ``pos`` holds int64 positions in this
        view's ``ids`` and positions come back, so no hop searches for a
        node id (``ids[next_pos]`` where one is read).  Returns
        ``(next_pos, moved, success, hop_ms)`` aligned with the inputs.
        Where ``moved`` is False the lookup terminated this step and
        ``success`` holds the scalar engines' verdict (at its key, or the
        responsible/closest check for stuck routes); ``next_pos`` equals
        ``pos`` there.  ``hop_ms`` is per-hop overlay latency (zero on
        unmoved rows) when ``lat_state`` is given, else ``None``.
        """
        return self._step(self.metric, pos, dest, alive_arr, lat_state)

    def _step(
        self,
        metric: str,
        pos: np.ndarray,
        dest: np.ndarray,
        alive_arr: Optional[np.ndarray],
        lat_state,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """:meth:`frontier_step` by the greedy rule of ``metric``."""
        cur_ids = self.ids[pos]
        if metric == "ring":
            remaining = (dest - cur_ids) & self.mask
            at_dest = remaining == _ZERO
            nxtp = _ring_hop(self._step_table(alive_arr), pos, remaining)
            moved = nxtp != pos
            stuck = ~moved & ~at_dest
            success = at_dest.copy()
            if np.any(stuck):
                gaps = self._ring_gaps(alive_arr)
                success[stuck] = remaining[stuck] < gaps[pos[stuck]]
        elif metric == "xor":
            cur_dist = cur_ids ^ dest
            at_dest = cur_dist == _ZERO
            if alive_arr is None:
                ids2d, posflat = self._xor_table()
                col = (ids2d[pos] >= dest.astype(ids2d.dtype)[:, None]).argmax(axis=1)
                # Wrap both ways: past the last real column to column 0, and
                # from column 0 to the last real one (a row with no
                # neighbors keeps both on its own padding).
                last = np.maximum(self.indptr[pos + 1] - self.indptr[pos] - 1, 0)
                flat = pos * np.intp(ids2d.shape[1])
                i1 = flat + np.where(col > last, 0, col)
                i2 = flat + np.where(col == 0, last, col - 1)
                idsflat = ids2d.ravel()
                d1 = idsflat[i1] ^ dest
                d2 = idsflat[i2] ^ dest
                pick2 = d2 < np.minimum(d1, cur_dist)
                closer = (d1 < cur_dist) | pick2
                nxtp = np.where(
                    closer, posflat[np.where(pick2, i2, i1)].astype(np.int64), pos
                )
                # Padding points back at its row: taking it is no move.
                moved = nxtp != pos
            else:
                nxt, ok = self._xor_step_alive(pos, dest, cur_dist, alive_arr)
                nxtp = np.where(ok, nxt, pos)
                moved = ok
            stuck = ~moved & ~at_dest
            success = at_dest.copy()
            if np.any(stuck):
                success[stuck] = self._xor_closest(
                    cur_ids[stuck], dest[stuck], alive_arr
                )
        else:
            raise ValueError(f"unknown metric {metric!r}")
        hop_ms: Optional[np.ndarray] = None
        if lat_state is not None:
            lr, lmat, lhop2 = lat_state
            hop_ms = np.zeros(pos.shape, dtype=np.float64)
            mv = np.flatnonzero(moved)
            if mv.size:
                hop_ms[mv] = lhop2 + lmat[
                    lr[pos[mv]], lr[nxtp[mv]]
                ].astype(np.float64)
        return nxtp, moved, success, hop_ms

    def step_frontier(
        self,
        state: InFlightFrontier,
        alive: Optional[np.ndarray] = None,
        latency: Optional["LatencyTable"] = None,
    ) -> int:
        """One hop for every not-done row of ``state``; returns moved count.

        ``alive`` is a *strictly increasing uint64 id array* — the serving
        runtime holds one per view epoch — and ring steps reuse the table
        :meth:`bind_alive` holds for as long as the same array comes back.
        Latency accumulates into ``state.latency_ms`` one addition per
        hop, preserving the scalar left-fold contract.
        """
        return self._advance(
            self.metric, state, alive, self._latency_state(latency)
        )

    def _advance(
        self,
        metric: str,
        state: InFlightFrontier,
        alive_arr: Optional[np.ndarray],
        lat_state,
    ) -> int:
        """:meth:`step_frontier` by the greedy rule of ``metric``."""
        act = np.flatnonzero(~state.done)
        if act.size == 0:
            return 0
        next_pos, moved, success, hop_ms = self._step(
            metric, state.pos[act], state.dest[act], alive_arr, lat_state
        )
        state.pos[act] = next_pos
        mv = act[moved]
        state.hops[mv] += 1
        if hop_ms is not None and mv.size:
            state.latency_ms[mv] += hop_ms[moved]
        fin = act[~moved]
        if fin.size:
            state.done[fin] = True
            state.success[fin] = success[~moved]
        return int(mv.size)

    def _result(
        self,
        src: np.ndarray,
        dest: np.ndarray,
        hops: np.ndarray,
        terminal: np.ndarray,
        success: np.ndarray,
        path_lists: Optional[List[List[int]]],
        latency_ms: Optional[np.ndarray] = None,
    ) -> BatchResult:
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("perf.batch.routes").inc(int(src.size))
            registry.counter("perf.batch.hops").inc(int(hops.sum()))
        return BatchResult(
            sources=src,
            dest_keys=dest,
            hops=hops,
            terminals=terminal,
            success=success,
            paths=path_lists,
            latency_ms=latency_ms,
        )


def _as_batch(sources: Sequence[int], dest_keys: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    if not hasattr(sources, "__len__"):
        sources = list(sources)
    if not hasattr(dest_keys, "__len__"):
        dest_keys = list(dest_keys)
    src = np.asarray(sources, dtype=_U64)
    dest = np.asarray(dest_keys, dtype=_U64)
    if src.shape != dest.shape:
        raise ValueError(f"{src.size} sources vs {dest.size} destination keys")
    return src, dest


def _ring_hop(
    table: Tuple[np.ndarray, np.ndarray], pos: np.ndarray, remaining: np.ndarray
) -> np.ndarray:
    """One greedy ring hop from the positions ``pos`` (int64), by position.

    ``table`` is a ``(dist2d, posflat)`` of :meth:`CompiledNetwork._build_ring_table`
    and ``remaining`` the masked clockwise distance to each key.  The first
    column ``<= remaining`` of a row is its best non-overshooting neighbor;
    the trailing zero makes "none" a self-step, so ``result == pos`` reads
    finished or stuck.
    """
    dist2d, posflat = table
    le = dist2d[pos] <= remaining.astype(dist2d.dtype)[:, None]
    return posflat[pos * np.intp(dist2d.shape[1]) + le.argmax(axis=1)].astype(np.int64)


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted array via binary search."""
    if sorted_arr.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_arr, values), sorted_arr.size - 1)
    return sorted_arr[pos] == values


def compile_network(network: DHTNetwork, cached: bool = True) -> CompiledNetwork:
    """Compile (and by default memoize on the network) the CSR layout.

    Link tables are static after :meth:`~repro.core.network.DHTNetwork.build`,
    so the compiled form is cached on the network object; pass
    ``cached=False`` after mutating ``links`` by hand.  Compilation time
    accrues to the ``compile`` phase of :data:`repro.obs.profile.PROFILER`.
    """
    if cached:
        compiled = network.__dict__.get("_perf_compiled")
        if compiled is not None:
            return compiled
    with PROFILER.phase("compile"):
        compiled = CompiledNetwork(network)
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("perf.batch.compiles").inc()
    if cached:
        network.__dict__["_perf_compiled"] = compiled
    return compiled


def batch_route(
    network: DHTNetwork,
    pairs: Sequence[Tuple[int, int]],
    alive: Optional[Set[int]] = None,
    paths: bool = False,
    latency: Optional["LatencyTable"] = None,
) -> BatchResult:
    """Batch :func:`~repro.core.routing.route`: engine picked by metric."""
    srcs = [p[0] for p in pairs]
    dests = [p[1] for p in pairs]
    return compile_network(network).route(
        srcs, dests, alive=alive, paths=paths, latency=latency
    )
