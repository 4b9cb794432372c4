"""Figure 5: average number of routing hops vs network size.

Paper result: hops are ~0.5*log2(n) + c for a small constant c that grows
with hierarchy depth, by at most 0.7 regardless of the number of levels —
routing in Crescendo is almost as efficient as in flat Chord.

Each grid point is one ``(size, levels, samples)`` tuple, and the worker
that measures it builds its own network from its own seeded rng, so
``--jobs N`` output is bit-identical to a serial run.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..analysis.metrics import sample_routing
from ..analysis.tables import Table
from ..perf.executor import map_points
from .common import build_crescendo, get_scale, seeded_rng


def _grid_point(point: Tuple[int, int, int]) -> float:
    """Mean hops at one (size, levels, samples) grid point (worker-safe)."""
    size, levels, samples = point
    rng = seeded_rng("fig5", size, levels)
    net = build_crescendo(size, levels, rng)
    stats = sample_routing(net, rng, samples=samples)
    if stats.success_rate != 1.0:
        raise AssertionError(f"routing failures at n={size}, levels={levels}")
    return stats.mean_hops


def measurements(
    scale: str = "small", jobs: Optional[int] = None
) -> Dict[Tuple[int, int], float]:
    """(n, levels) -> mean routing hops."""
    cfg = get_scale(scale)
    points = [
        (size, levels, cfg.route_samples)
        for size in cfg.fig3_sizes
        for levels in cfg.fig3_levels
    ]
    values = map_points(_grid_point, points, jobs=jobs)
    return {
        (size, levels): value for (size, levels, _), value in zip(points, values)
    }


def run(scale: str = "small", jobs: Optional[int] = None) -> Table:
    """Render the Figure 5 table (avg routing hops vs n)."""
    cfg = get_scale(scale)
    data = measurements(scale, jobs=jobs)
    table = Table(
        "Figure 5 — Avg #routing hops (greedy clockwise)",
        ["n", "0.5*log2(n)"] + [f"levels={lv}" for lv in cfg.fig3_levels],
    )
    for size in cfg.fig3_sizes:
        table.add_row(
            size,
            0.5 * math.log2(size),
            *(data[(size, levels)] for levels in cfg.fig3_levels),
        )
    return table
