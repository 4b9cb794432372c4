"""Figure 4: PDF of the number of links per node (32K-node network).

Paper result: as the number of hierarchy levels grows the distribution
"flattens out" to the *left* of the mean (more nodes with fewer links —
again the Jensen effect), while the maximum degree barely increases.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.tables import Table
from ..perf.executor import map_points
from .common import build_crescendo, get_scale, seeded_rng


def _grid_point(point: Tuple[int, int]) -> Dict[int, float]:
    """Degree PDF at one (size, levels) grid point (worker-safe)."""
    size, levels = point
    net = build_crescendo(size, levels, seeded_rng("fig4", levels))
    return net.degree_distribution()


def distributions(
    scale: str = "small", jobs: Optional[int] = None
) -> Dict[int, Dict[int, float]]:
    """levels -> degree -> fraction of nodes."""
    cfg = get_scale(scale)
    points = [(cfg.fig4_size, levels) for levels in cfg.fig3_levels]
    values = map_points(_grid_point, points, jobs=jobs)
    return {levels: pdf for (_, levels), pdf in zip(points, values)}


def run(scale: str = "small", jobs: Optional[int] = None) -> Table:
    """Render the Figure 4 degree-PDF table."""
    cfg = get_scale(scale)
    dists = distributions(scale, jobs=jobs)
    degrees = sorted({d for pdf in dists.values() for d in pdf})
    table = Table(
        f"Figure 4 — PDF of #links/node ({cfg.fig4_size}-node network)",
        ["#links"] + [f"levels={lv}" for lv in sorted(dists)],
    )
    for degree in degrees:
        table.add_row(
            degree, *(dists[lv].get(degree, 0.0) for lv in sorted(dists))
        )
    return table
