"""Fast-path layer: batch routing kernels, a parallel experiment executor,
bulk builders, a fast maintenance engine and the data-plane fast path.

Five cooperating pieces, each individually optional and all bit-identical
to the plain implementations they accelerate:

- :mod:`repro.perf.kernels` — compile a built network's link tables into a
  CSR-style numpy layout once, then route whole batches of (src, key)
  pairs frontier-at-a-time (one vectorized step per hop over every
  still-active route).
- :mod:`repro.perf.executor` — fan per-figure parameter grids out across a
  :class:`~concurrent.futures.ProcessPoolExecutor`; per-point seeded RNGs
  keep results identical to serial runs, and child metrics registries are
  merged back via the obs snapshot/merge API.
- :mod:`repro.perf.build` — vectorized bulk link-table builders for the
  families the figures build at scale (Chord, Crescendo, Kademlia, Kandy
  and the proximity variants); a network's ``build()`` takes them
  whenever its input has a bulk form, and the scalar constructions in
  :mod:`repro.dhts` remain the cross-checked reference behind
  ``build_reference()`` (and the only construction of the other families).
- :mod:`repro.perf.dynamic` — the fast dynamic-maintenance engine: the
  protocol of :class:`~repro.simulation.protocol.SimulatedCrescendo` on
  faster primitives — array-backed membership queries
  (:class:`~repro.perf.dynamic.NodeArena`), a bisected greedy next hop
  and quiescent-ring memoization of stabilize steps; the engine
  every run uses (:func:`~repro.perf.dynamic.make_protocol`), held to
  bit-for-bit equivalence with the reference by
  :func:`repro.verify.oracles.compare_protocols` and the churn fuzzer.
- :mod:`repro.perf.storage` — the data-plane fast path: vectorized replica
  placement and pointer location (:func:`~repro.perf.storage.plan_puts`),
  batch put/get over the compiled ring tables with access-domain checks as
  integer prefix compares (:class:`~repro.perf.storage.CompiledStore`),
  vectorized churn repair scans (:func:`~repro.perf.storage.repair_scan`)
  and :class:`~repro.perf.storage.FastDataLayer`, the scalar
  :class:`~repro.simulation.data.DataLayer` with that scan as its repair
  sweep and nothing else redefined; held to scalar equivalence by
  :func:`repro.verify.oracles.compare_storage`.

See ``docs/performance.md`` for the layout and benchmark methodology.
"""

from .build import derive_generator
from .dynamic import (
    FastSimulatedCrescendo,
    NodeArena,
    make_protocol,
)
from .executor import (
    get_default_jobs,
    map_points,
    resolve_jobs,
    set_default_jobs,
)
from .kernels import (
    BatchResult,
    CompiledNetwork,
    batch_route,
    compile_network,
)
from .storage import (
    BatchSearchResult,
    CompiledStore,
    DomainIndex,
    FastDataLayer,
    PutPlan,
    RepairPlan,
    bulk_put,
    bulk_put_replicated,
    plan_puts,
    repair_scan,
    scalar_search_latency,
)

__all__ = [
    "BatchResult",
    "BatchSearchResult",
    "CompiledNetwork",
    "CompiledStore",
    "DomainIndex",
    "FastDataLayer",
    "FastSimulatedCrescendo",
    "NodeArena",
    "PutPlan",
    "RepairPlan",
    "batch_route",
    "bulk_put",
    "bulk_put_replicated",
    "compile_network",
    "derive_generator",
    "get_default_jobs",
    "make_protocol",
    "map_points",
    "plan_puts",
    "repair_scan",
    "resolve_jobs",
    "scalar_search_latency",
    "set_default_jobs",
]
