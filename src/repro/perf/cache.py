"""On-disk cache of built link tables.

Building a 32K-node Crescendo (let alone the four networks of a topology
setup) dwarfs the routing measurements taken on it, yet the construction is
a pure function of ``(family, size, levels, seed token, id-space bits,
builder version)`` — exactly the cache key used here.  Which builder runs
is itself a function of the input (bulk above
:data:`repro.perf.build.BULK_THRESHOLD` nodes), so the size already in the
key fixes it; :data:`repro.perf.build.BUILDER_VERSION` is bumped whenever a
builder's output could change, so tables from an older builder read as
misses.  A :class:`NetworkCache` stores, per key,
everything a constructed-but-unbuilt network needs to become identical to a
freshly built one: the link table, the Crescendo extras (``gap``,
``level_successors``) when present, and the builder RNG's post-build state
so every *subsequent* draw from the caller's RNG matches the uncached run
byte-for-byte.

Entries are pickle files named by the SHA-256 of the key's ``repr`` under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-canon/networks``); the key
string is stored inside each entry and verified on load, so hash collisions
and stale/corrupt files degrade to cache misses, never wrong networks.
Writes are atomic (``mkstemp`` + ``os.replace``), so parallel workers can
share one cache directory.  The experiments CLI enables the cache by
default; ``--no-cache`` opts out, and bumping :data:`CACHE_VERSION`
invalidates every existing entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from ..core.network import DHTNetwork
from ..obs import metrics as obs_metrics

__all__ = [
    "CACHE_VERSION",
    "NetworkCache",
    "active_cache",
    "caching",
    "default_cache_dir",
    "disable",
    "enable",
    "install_network",
    "network_payload",
]

#: Bump when the payload layout (or anything affecting built link tables)
#: changes; old entries then read as misses.  v2: keys grew the builder
#: tag and payloads the Kandy/Can-Can extras (contact_depth, edge_depth).
#: v3: compiled CSR arrays ride alongside as an ``.npz`` sidecar so warm
#: loads of large networks skip Python-object link-table reconstruction.
CACHE_VERSION = 3


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-canon/networks``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-canon" / "networks"


class NetworkCache:
    """A directory of pickled built-network payloads, keyed by tuples."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ keys

    @staticmethod
    def key_string(key: Tuple) -> str:
        """The canonical (version-prefixed) string form of a cache key."""
        return f"v{CACHE_VERSION}:{key!r}"

    def path_for(self, key: Tuple) -> Path:
        """The cache file a key maps to (SHA-256 of its key string)."""
        digest = hashlib.sha256(self.key_string(key).encode("utf-8")).hexdigest()
        return self.root / f"{digest}.pkl"

    def array_path_for(self, key: Tuple) -> Path:
        """The ``.npz`` sidecar holding a key's compiled CSR arrays."""
        return self.path_for(key).with_suffix(".npz")

    # ------------------------------------------------------------------- api

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` (miss).

        Unreadable, corrupt or colliding entries count as misses; the cache
        never raises on load.
        """
        path = self.path_for(key)
        payload: Optional[Dict[str, Any]] = None
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if (
                isinstance(entry, dict)
                and entry.get("key") == self.key_string(key)
                and entry.get("version") == CACHE_VERSION
            ):
                payload = entry["payload"]
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, KeyError):
            payload = None
        registry = obs_metrics.active_registry()
        if payload is None:
            self.misses += 1
            if registry is not None:
                registry.counter("perf.cache.misses").inc()
            return None
        self.hits += 1
        if registry is not None:
            registry.counter("perf.cache.hits").inc()
        return payload

    def put(self, key: Tuple, payload: Dict[str, Any]) -> Path:
        """Atomically store ``payload`` under ``key``; returns the file path."""
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CACHE_VERSION,
            "key": self.key_string(key),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("perf.cache.stores").inc()
        return path

    # --------------------------------------------------------- array sidecar

    def get_arrays(self, key: Tuple) -> Optional[Dict[str, Any]]:
        """The compiled-array sidecar for ``key``, or ``None`` (miss).

        Arrays load with ``allow_pickle=False`` and the embedded key string
        is verified, so — like :meth:`get` — corruption and collisions
        degrade to misses, never wrong arrays.
        """
        import numpy as np

        path = self.array_path_for(key)
        arrays: Optional[Dict[str, Any]] = None
        try:
            with np.load(path, allow_pickle=False) as npz:
                if str(npz["__key__"]) == self.key_string(key):
                    arrays = {
                        name: npz[name] for name in npz.files if name != "__key__"
                    }
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            arrays = None
        registry = obs_metrics.active_registry()
        if arrays is None:
            if registry is not None:
                registry.counter("perf.cache.array_misses").inc()
            return None
        if registry is not None:
            registry.counter("perf.cache.array_hits").inc()
        return arrays

    def put_arrays(self, key: Tuple, arrays: Dict[str, Any]) -> Path:
        """Atomically store compiled arrays as the ``.npz`` sidecar of ``key``."""
        import numpy as np

        path = self.array_path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, __key__=self.key_string(key), **arrays)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("perf.cache.array_stores").inc()
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns how many files were removed."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.pkl", "*.npz"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counts accumulated by this cache instance."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


# ------------------------------------------------------- network (de)hydration


def network_payload(
    network: DHTNetwork, rng_state: Optional[Tuple] = None
) -> Dict[str, Any]:
    """Everything needed to reinstate ``network``'s built state later.

    Captures the link table plus, duck-typed, the Crescendo-family extras
    (``gap``, ``level_successors``).  Pass the builder RNG's
    ``getstate()`` (captured *after* the build) as ``rng_state`` when the
    caller keeps drawing from that RNG afterwards.
    """
    network.require_built()
    payload: Dict[str, Any] = {
        "node_ids": list(network.node_ids),
        "links": {node: list(t) for node, t in network.links.items()},
    }
    if rng_state is not None:
        payload["rng_state"] = rng_state
    gap = getattr(network, "gap", None)
    if gap is not None:
        payload["gap"] = dict(gap)
    level_successors = getattr(network, "level_successors", None)
    if level_successors is not None:
        payload["level_successors"] = {
            node: list(succ) for node, succ in level_successors.items()
        }
    for extra in ("contact_depth", "edge_depth"):
        value = getattr(network, extra, None)
        if value is not None:
            payload[extra] = {node: dict(depths) for node, depths in value.items()}
    built_with = getattr(network, "built_with", None)
    if built_with is not None:
        payload["built_with"] = built_with
    return payload


def install_network(network: DHTNetwork, payload: Dict[str, Any]) -> DHTNetwork:
    """Reinstate a cached built state onto a constructed (unbuilt) network.

    Validates that the payload covers exactly this network's node ids — a
    mismatched entry raises rather than silently producing a wrong network.
    """
    if set(payload["node_ids"]) != set(network.node_ids):
        raise ValueError("cached payload does not match this network's node ids")
    network.links = {node: list(t) for node, t in payload["links"].items()}
    if "gap" in payload and hasattr(network, "gap"):
        network.gap = dict(payload["gap"])
    if "level_successors" in payload and hasattr(network, "level_successors"):
        network.level_successors = {
            node: list(succ) for node, succ in payload["level_successors"].items()
        }
    for extra in ("contact_depth", "edge_depth"):
        if extra in payload and hasattr(network, extra):
            setattr(
                network,
                extra,
                {node: dict(depths) for node, depths in payload[extra].items()},
            )
    if "built_with" in payload:
        network.built_with = payload["built_with"]
    network._built = True
    return network


# ----------------------------------------------------------- active cache state

_active: Optional[NetworkCache] = None


def enable(cache: Optional[NetworkCache] = None) -> NetworkCache:
    """Install ``cache`` (a default-directory one if omitted) as active."""
    global _active
    _active = cache if cache is not None else NetworkCache()
    return _active


def disable() -> None:
    """Deactivate caching (builders construct from scratch again)."""
    global _active
    _active = None


def active_cache() -> Optional[NetworkCache]:
    """The currently active cache, or ``None``."""
    return _active


@contextmanager
def caching(cache: Optional[NetworkCache] = None) -> Iterator[NetworkCache]:
    """Activate a cache for the ``with`` body, restoring the previous one."""
    previous = _active
    cache = enable(cache)
    try:
        yield cache
    finally:
        if previous is None:
            disable()
        else:
            enable(previous)
