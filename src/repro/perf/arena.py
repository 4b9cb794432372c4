"""Zero-copy shared-memory arenas for compiled networks.

A grid run with ``--jobs N`` used to hand every worker its own copy of each
built network (rebuilt from the cache or inherited copy-on-write and then
touched all over by compilation).  At paper-and-beyond populations the
duplicated CSR arrays — not CPU — are what stops the grid from scaling.
An :class:`Arena` instead lays every array a worker needs into a single
``multiprocessing.shared_memory`` block described by a small picklable
:class:`ArenaManifest`; workers attach read-only and route through the
batch kernels of :mod:`repro.perf.kernels` unchanged, so a million-node
network costs its arena bytes *once* per machine regardless of ``--jobs``.

Layout.  :func:`export_network` packs a
:class:`~repro.perf.kernels.CompiledNetwork` — ids, CSR ``indptr`` /
``neighbors`` / ``nbr_pos`` plus the metric-specific search structure (the
ring distance matrix for ring-metric networks, the augmented key arrays
for XOR-metric ones) — and optionally a
:class:`~repro.perf.latency.LatencyTable` (position-aligned router indices
plus the float32 all-pairs matrix, either inline or referencing a separate
matrix arena shared across grid points) and a per-node top-level-domain
code array (so workers can compute ``route.crossings`` without a
:class:`~repro.core.hierarchy.Hierarchy`).  Index dtypes are whatever the
compiled network minimized them to (int32 below 2**31 nodes/edges).

Lifecycle.  The creating process owns the segment: ``close``/``unlink``
happen in :meth:`Arena.dispose` (idempotent), in a ``weakref.finalize``
when the owner is garbage collected, and — because the finalizer is
pid-guarded — *never* in a forked worker that merely inherited the object.
Workers attach by name (cached per process, unregistered from the
``resource_tracker`` so the parent's explicit cleanup is the single owner
of the name); forked children of the creator skip the attach entirely and
reuse the inherited mapping.  ``unlink`` runs before ``close`` so the name
disappears even while numpy views are still alive (the memory itself is
reclaimed when the last mapping dies), which is what the leak tests
assert: after a grid run — including one where a worker raised mid-grid —
attaching any of the run's names fails.

Observability: the ``arena.bytes`` gauge tracks the bytes of live arenas
owned by this process; ``arena.creates``/``arena.attaches`` count
lifecycle events; an exported latency matrix refreshes the
``topology.latency_matrix_bytes`` gauge.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "Arena",
    "ArenaManifest",
    "NetworkView",
    "attach",
    "attach_network",
    "current_manifest",
    "default_enabled",
    "export_latency_matrix",
    "export_network",
    "live_arena_bytes",
    "publish",
    "set_default_arena",
    "top_domain_codes",
    "unpublish",
]

#: Byte alignment of every array within a segment (cache-line friendly).
_ALIGN = 64


@dataclass(frozen=True)
class ArenaManifest:
    """Typed description of one shared-memory segment (small, picklable).

    ``fields`` maps each array to ``(name, dtype string, shape, byte
    offset)`` within the segment; ``meta`` carries small scalars (metric,
    bits, latency host_ms, per-point extras such as a captured RNG state).
    """

    name: str
    nbytes: int
    fields: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    meta: Dict[str, Any] = field(default_factory=dict)


# ------------------------------------------------------------ process state

#: Live owner arenas by segment name (weakrefs: must not keep them alive).
_OWNED: Dict[str, "weakref.ref[Arena]"] = {}
#: Attached segments by name (this process is not the owner).
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
#: Memoized network views by segment name.
_VIEWS: Dict[str, "NetworkView"] = {}
#: Bytes of live arenas owned by this process (the ``arena.bytes`` gauge).
_live_bytes = 0

#: Manifests published for the current grid (inherited by forked workers).
_published: Optional[Mapping[Any, ArenaManifest]] = None

_default_arena = False


def set_default_arena(enabled: bool) -> None:
    """Process-wide default for arena-backed grids (the CLI ``--arena``)."""
    global _default_arena
    _default_arena = bool(enabled)


def default_enabled() -> bool:
    """Whether arena-backed grids are the process default."""
    return _default_arena


def live_arena_bytes() -> int:
    """Total bytes of shared segments this process currently owns."""
    return _live_bytes


def _set_gauge() -> None:
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.gauge("arena.bytes").set(float(_live_bytes))


def _count(name: str) -> None:
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter(name).inc()


# ------------------------------------------------------------- publication


def publish(manifests: Mapping[Any, ArenaManifest]) -> object:
    """Install grid manifests for workers; returns a token for unpublish.

    Called by :func:`repro.perf.executor.map_points` *before* forking, so
    workers inherit the mapping and resolve their point's manifest with
    :func:`current_manifest` — no network ever crosses the pipe.
    """
    global _published
    token = _published
    _published = dict(manifests)
    return token


def unpublish(token: object) -> None:
    """Restore the previously published manifests (or none)."""
    global _published
    _published = token


def current_manifest(key: Any) -> ArenaManifest:
    """The published manifest for a grid key (clear error when absent)."""
    if _published is None:
        raise LookupError("no arena manifests are published in this process")
    try:
        return _published[key]
    except KeyError:
        raise LookupError(f"no arena manifest published for grid key {key!r}")


# ------------------------------------------------------------------- arenas


def _layout(
    arrays: Mapping[str, np.ndarray]
) -> Tuple[Tuple[Tuple[str, str, Tuple[int, ...], int], ...], int]:
    fields = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        fields.append((name, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    return tuple(fields), max(offset, 1)


def _map_fields(
    buf, fields: Tuple[Tuple[str, str, Tuple[int, ...], int], ...], writable: bool
) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        view.flags.writeable = writable
        out[name] = view
    return out


def _purge(name: str) -> None:
    _OWNED.pop(name, None)
    _VIEWS.pop(name, None)
    shm = _ATTACHED.pop(name, None)
    if shm is not None:
        try:
            shm.close()
        except BufferError:  # numpy views still alive; mapping dies with them
            pass


def _cleanup(shm: shared_memory.SharedMemory, owner_pid: int, nbytes: int, name: str) -> None:
    """Owner-side teardown: unlink the name, then close if possible.

    Runs from :meth:`Arena.dispose`, the GC finalizer, or interpreter
    shutdown — but only in the creating process: forked workers inherit
    the object (and this finalizer) and must never unlink the parent's
    segment, so any other pid returns immediately.  ``unlink`` precedes
    ``close`` because closing fails with :class:`BufferError` while numpy
    views are exported; the name must disappear regardless.
    """
    if os.getpid() != owner_pid:
        return
    global _live_bytes
    _purge(name)
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        pass
    _live_bytes -= nbytes
    _set_gauge()


class Arena:
    """One owned shared-memory segment holding named numpy arrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: ArenaManifest,
        owner_pid: int,
    ) -> None:
        self.shm = shm
        self.manifest = manifest
        self.owner_pid = owner_pid
        self._finalizer = weakref.finalize(
            self, _cleanup, shm, owner_pid, manifest.nbytes, manifest.name
        )

    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
        label: str = "arena",
    ) -> "Arena":
        """Copy ``arrays`` into a fresh named segment; returns its owner."""
        global _live_bytes
        fields, nbytes = _layout(arrays)
        name = f"repro-{label}-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        manifest = ArenaManifest(
            name=shm.name, nbytes=nbytes, fields=fields, meta=dict(meta or {})
        )
        views = _map_fields(shm.buf, fields, writable=True)
        for field_name, arr in arrays.items():
            np.copyto(views[field_name], np.ascontiguousarray(arr), casting="no")
            views[field_name].flags.writeable = False
        arena = cls(shm, manifest, os.getpid())
        _OWNED[shm.name] = weakref.ref(arena)
        _live_bytes += nbytes
        _set_gauge()
        _count("arena.creates")
        return arena

    @property
    def nbytes(self) -> int:
        return self.manifest.nbytes

    @property
    def disposed(self) -> bool:
        return not self._finalizer.alive

    def arrays(self) -> Dict[str, np.ndarray]:
        """Read-only views of every field over the owned buffer."""
        if self.disposed:
            raise ValueError(f"arena {self.manifest.name} is disposed")
        return _map_fields(self.shm.buf, self.manifest.fields, writable=False)

    def dispose(self) -> None:
        """Unlink the segment (idempotent; also the GC/exit behavior)."""
        self._finalizer()

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach by name, leaving the owner as the name's sole unlinker.

    Python < 3.13 registers *attachers* with the ``resource_tracker`` too,
    which would have the tracker try (and warn about) a second unlink at
    shutdown; unregistering right after attach restores single ownership.
    """
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # py3.13+
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


def attach(manifest: ArenaManifest) -> Dict[str, np.ndarray]:
    """Read-only array views of a segment described by ``manifest``.

    The owner (or a forked child of it) reuses the existing mapping; other
    processes attach by name, cached per process.
    """
    ref = _OWNED.get(manifest.name)
    owner = ref() if ref is not None else None
    if owner is not None and not owner.disposed:
        return _map_fields(owner.shm.buf, manifest.fields, writable=False)
    shm = _ATTACHED.get(manifest.name)
    if shm is None:
        shm = _attach_segment(manifest.name)
        _ATTACHED[manifest.name] = shm
        _count("arena.attaches")
    return _map_fields(shm.buf, manifest.fields, writable=False)


# -------------------------------------------------------- network packaging

#: CompiledNetwork fields shared by both metrics.
_CSR_FIELDS = ("ids", "indptr", "neighbors", "nbr_pos")


def top_domain_codes(hierarchy, ids: np.ndarray) -> np.ndarray:
    """Per-position top-level-domain codes (-1 for root-placed nodes).

    Two nodes share a code iff their ``path_of(...)[:1]`` prefixes are
    equal, which is exactly what
    :meth:`~repro.core.routing.Route.domain_crossings` compares at level 1
    — so workers can count crossings from this array alone.
    """
    table: Dict[str, int] = {}
    codes = np.empty(len(ids), dtype=np.int32)
    for i, node in enumerate(np.asarray(ids).tolist()):
        path = hierarchy.path_of(node)
        codes[i] = table.setdefault(path[0], len(table)) if path else -1
    return codes


def export_latency_matrix(table, label: str = "latmat") -> Arena:
    """Share a latency table's all-pairs router matrix as its own arena.

    The matrix is identical across every grid point of a run, so exporting
    it once and referencing it from each per-network manifest (the
    ``matrix_arena`` argument of :func:`export_network`) keeps its bytes
    single-copy no matter how many networks ride on it.
    """
    arena = Arena.create({"matrix": table.matrix}, meta={"kind": "latency-matrix"}, label=label)
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.gauge("topology.latency_matrix_bytes").set(float(table.matrix.nbytes))
    return arena


def export_network(
    compiled,
    latency=None,
    matrix_arena: Optional[Arena] = None,
    top_domain: Optional[np.ndarray] = None,
    extras: Optional[Dict[str, Any]] = None,
    label: str = "net",
) -> Arena:
    """Pack a compiled network (and friends) into one owned arena.

    ``latency`` (a :class:`~repro.perf.latency.LatencyTable`) adds the
    position-aligned router indices; its matrix goes inline unless
    ``matrix_arena`` (from :func:`export_latency_matrix`) supplies a
    shared segment to reference instead.  ``top_domain`` adds the per-node
    code array from :func:`top_domain_codes`; ``extras`` lands in
    ``manifest.meta["extras"]`` (small picklable values only — e.g. a
    captured ``rng.getstate()``).
    """
    arrays: Dict[str, np.ndarray] = {name: getattr(compiled, name) for name in _CSR_FIELDS}
    meta: Dict[str, Any] = {
        "kind": "network",
        "metric": compiled.metric,
        "bits": compiled.bits,
        "n": compiled.n,
    }
    if compiled.metric == "ring":
        dist2d, posflat = compiled._step_table(None)
        arrays["ring_dist2d"] = dist2d
        arrays["ring_posflat"] = posflat
        meta["ring_width"] = int(dist2d.shape[1])
    else:
        arrays["aug"], arrays["cand_ids"], arrays["cand_aug"] = compiled._xor_table()
    if top_domain is not None:
        arrays["top_domain"] = np.asarray(top_domain, dtype=np.int32)
    if latency is not None:
        arrays["lat_routers"] = latency.aligned_routers(compiled.ids)
        meta["latency"] = {"host_ms": latency.host_ms}
        if matrix_arena is not None:
            meta["latency"]["matrix_manifest"] = matrix_arena.manifest
        else:
            arrays["lat_matrix"] = latency.matrix
    if extras:
        meta["extras"] = dict(extras)
    return Arena.create(arrays, meta=meta, label=label)


@dataclass
class NetworkView:
    """A worker's zero-copy handle on an exported network."""

    compiled: Any  # CompiledNetwork over shared views
    latency: Optional[Any]  # LatencyTable over shared views, when exported
    top_domain: Optional[np.ndarray]
    meta: Dict[str, Any]


def attach_network(manifest: ArenaManifest) -> NetworkView:
    """Rehydrate a :class:`NetworkView` from an exported network's manifest.

    Views are memoized per segment name, so a worker that processes
    several grid points against one network attaches (and rebuilds the
    :class:`~repro.perf.kernels.CompiledNetwork` wrapper) once.
    """
    cached = _VIEWS.get(manifest.name)
    if cached is not None:
        return cached
    from .kernels import CompiledNetwork
    from .latency import LatencyTable

    arrays = attach(manifest)
    meta = manifest.meta
    ring_tables = xor_tables = None
    if "ring_dist2d" in arrays:
        ring_tables = (arrays["ring_dist2d"], arrays["ring_posflat"])
    if "aug" in arrays:
        xor_tables = (arrays["aug"], arrays["cand_ids"], arrays["cand_aug"])
    compiled = CompiledNetwork.from_arrays(
        metric=meta["metric"],
        bits=meta["bits"],
        ids=arrays["ids"],
        indptr=arrays["indptr"],
        neighbors=arrays["neighbors"],
        nbr_pos=arrays["nbr_pos"],
        xor_tables=xor_tables,
        ring_tables=ring_tables,
    )
    latency = None
    lat_meta = meta.get("latency")
    if lat_meta is not None:
        matrix_manifest = lat_meta.get("matrix_manifest")
        matrix = (
            attach(matrix_manifest)["matrix"]
            if matrix_manifest is not None
            else arrays["lat_matrix"]
        )
        latency = LatencyTable(
            compiled.ids, arrays["lat_routers"], matrix, host_ms=lat_meta["host_ms"]
        )
        # Pre-seed the per-batch alignment cache: routers are stored
        # position-aligned with the compiled ids already.
        latency._align_cache[id(compiled.ids)] = (compiled.ids, arrays["lat_routers"])
    view = NetworkView(
        compiled=compiled,
        latency=latency,
        top_domain=arrays.get("top_domain"),
        meta=meta,
    )
    _VIEWS[manifest.name] = view
    return view
