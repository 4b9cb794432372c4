"""Figure 3: average number of links per node vs network size.

Paper result: the average degree stays extremely close to log2(n) regardless
of the number of hierarchy levels, and *decreases slightly* as levels are
added (a Jensen's-inequality effect on the inter-domain link count).
Chord is the levels=1 row.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..analysis.tables import Table
from ..perf.executor import map_points
from .common import build_crescendo, get_scale, seeded_rng


def _grid_point(point: Tuple[int, int]) -> float:
    """Average degree at one (size, levels) grid point (worker-safe)."""
    size, levels = point
    net = build_crescendo(size, levels, seeded_rng("fig3", size, levels))
    return net.average_degree()


def measurements(
    scale: str = "small", jobs: Optional[int] = None
) -> Dict[Tuple[int, int], float]:
    """(n, levels) -> average degree, for programmatic assertions."""
    cfg = get_scale(scale)
    points = [(size, levels) for size in cfg.fig3_sizes for levels in cfg.fig3_levels]
    return dict(zip(points, map_points(_grid_point, points, jobs=jobs)))


def run(scale: str = "small", jobs: Optional[int] = None) -> Table:
    """Render the Figure 3 table (avg #links/node vs n)."""
    cfg = get_scale(scale)
    data = measurements(scale, jobs=jobs)
    table = Table(
        "Figure 3 — Avg #links/node (fan-out 10, Zipf(1.25) hierarchy)",
        ["n", "log2(n)"] + [f"levels={lv}" for lv in cfg.fig3_levels],
    )
    for size in cfg.fig3_sizes:
        table.add_row(
            size,
            math.log2(size),
            *(data[(size, levels)] for levels in cfg.fig3_levels),
        )
    return table
