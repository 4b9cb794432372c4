"""Parallel experiment executor: fan parameter grids across processes.

The per-figure experiment modules express their parameter grids as lists of
points and a module-level ``_grid_point`` function; :func:`map_points` maps
the function over the points either serially (the default) or across a
``ProcessPoolExecutor``.  Results are returned in submission order and each
point derives its own RNG from :func:`repro.experiments.common.seeded_rng`
tokens, so parallel output is **bit-identical** to serial output
(property-tested in ``tests/test_perf_executor.py``).

Observability composes: each worker collects into a fresh
:class:`~repro.obs.metrics.MetricsRegistry` and returns its snapshot plus
its phase-timer totals; the parent folds both back into its own active
registry (via :meth:`MetricsRegistry.absorb`) and
:data:`~repro.obs.profile.PROFILER` in submission order, so the merged
metrics equal a serial run's.  Route *tracing* records per-route payloads
that cannot be merged order-faithfully, so an active tracer forces a serial
fallback (with a warning).

The CLI exposes this as ``--jobs N`` (0 = all cores) by setting the
process-wide default; library callers can pass ``jobs=`` explicitly.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.profile import PROFILER

__all__ = ["get_default_jobs", "map_points", "resolve_jobs", "set_default_jobs"]

logger = logging.getLogger("repro.perf.executor")

_default_jobs = 1


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (0 = all cores)."""
    global _default_jobs
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    _default_jobs = jobs


def get_default_jobs() -> int:
    """The process-wide default worker count as set (0 = all cores)."""
    return _default_jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Concrete worker count for a call: explicit arg, else the default."""
    jobs = _default_jobs if jobs is None else jobs
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _run_point(fn: Callable[[Any], Any], point: Any) -> Tuple[Any, str, dict]:
    """Worker-side wrapper: isolate obs state, return result + obs payloads."""
    # Workers must not fan out further, trace into the parent's inherited
    # tracer, or double-count inherited phase totals.
    set_default_jobs(1)
    obs_trace.deactivate()
    PROFILER.reset()
    with obs_metrics.collecting() as registry:
        result = fn(point)
    return result, registry.snapshot().to_json(indent=0), PROFILER.as_dict()


def map_points(
    fn: Callable[[Any], Any],
    points: Iterable[Any],
    jobs: Optional[int] = None,
) -> List[Any]:
    """``[fn(p) for p in points]``, optionally across worker processes.

    With ``jobs`` (or the process default) > 1, points are distributed over
    a fork-based ``ProcessPoolExecutor`` and results are gathered in
    submission order; worker metrics snapshots and phase timings are folded
    back into the parent's.  Falls back to serial when forking is
    unavailable, fewer than two points exist, or a tracer is active.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(points) <= 1:
        return [fn(point) for point in points]
    if obs_trace.active_tracer() is not None:
        logger.warning(
            "route tracing is active; running %d points serially "
            "(per-route trace order is not mergeable across processes)",
            len(points),
        )
        return [fn(point) for point in points]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        logger.warning("fork start method unavailable; running serially")
        return [fn(point) for point in points]
    registry = obs_metrics.active_registry()
    workers = min(jobs, len(points))
    logger.info("mapping %d points across %d workers", len(points), workers)
    results: List[Any] = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(_run_point, fn, point) for point in points]
        for future in futures:  # submission order == grid order
            result, snapshot_json, phases = future.result()
            results.append(result)
            if registry is not None:
                registry.absorb(
                    obs_metrics.MetricsSnapshot.from_json(snapshot_json)
                )
            PROFILER.absorb(phases)
    return results
