"""Family x level SLO tables from metrics snapshots.

:func:`record_slo` is the one writer of these instruments (routing
samples, scenario and churn runs, and the serving runtime's
:class:`~repro.serve.middleware.SLOMiddleware` all call it), per family
label:

- ``slo.lookup_ms.<label>`` — end-to-end lookup latency histogram (ms),
  delivered lookups only, with a reservoir sample for true quantiles;
- ``slo.lookup_ms.<label>.L<k>`` — the same, split by hierarchy level
  ``k`` = the depth of the lowest common domain of source and target
  (L0 = cross-root traffic, deeper = more local);
- ``slo.direct_ms.<label>`` (and ``.L<k>``) — the direct source→target
  link latency for the same pairs, the paper's stretch denominator;
- counters ``slo.samples.<label>`` / ``slo.delivered.<label>`` — offered
  vs delivered lookups, giving availability;
- counters ``slo.domain.<label>.<domain>`` — delivered lookups per
  top-level domain of their lowest common domain (``root`` across roots).

:class:`SLOReport` parses those names back out of a
:class:`~repro.obs.metrics.MetricsSnapshot` and renders the family x
level -> {p50, p95, p99 lookup ms, stretch vs direct, availability}
table; ``python -m repro.obs report`` is the CLI wrapper that emits it as
text, JSON, or CSV.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, MetricsSnapshot

__all__ = ["SLORow", "SLOReport", "record_slo"]

_LOOKUP_PREFIX = "slo.lookup_ms."
_DIRECT_PREFIX = "slo.direct_ms."


def _split_level(rest: str) -> Tuple[str, str]:
    """``"chord.L2" -> ("chord", "L2")``; no suffix -> level ``"all"``."""
    head, dot, tail = rest.rpartition(".")
    if dot and len(tail) > 1 and tail[0] == "L" and tail[1:].isdigit():
        return head, tail
    return rest, "all"


def record_slo(
    registry: MetricsRegistry,
    label: str,
    offered: int,
    delivered: int,
    lookup_ms: Sequence[float] = (),
    direct_ms: Optional[Sequence[float]] = None,
    levels: Optional[Sequence[int]] = None,
    domains: Optional[Sequence[str]] = None,
) -> None:
    """Record one family's ``slo.*`` instruments.

    ``lookup_ms`` holds the delivered lookups' latencies and, aligned with
    it, ``direct_ms`` their direct source-to-target latencies, ``levels``
    their common-domain depths (splitting both histograms per level) and
    ``domains`` their top-level common domains.  Histograms and domain
    counters are written only when ``lookup_ms`` is non-empty.
    """
    registry.counter(f"slo.samples.{label}").inc(offered)
    registry.counter(f"slo.delivered.{label}").inc(delivered)
    if not len(lookup_ms):
        return
    registry.histogram(f"slo.lookup_ms.{label}").observe_many(lookup_ms)
    if direct_ms is not None:
        registry.histogram(f"slo.direct_ms.{label}").observe_many(direct_ms)
    by_level: Dict[int, List[int]] = {}
    for i, level in enumerate(levels or ()):
        by_level.setdefault(level, []).append(i)
    for level, rows in sorted(by_level.items()):
        registry.histogram(f"slo.lookup_ms.{label}.L{level}").observe_many(
            [lookup_ms[i] for i in rows]
        )
        if direct_ms is not None:
            registry.histogram(f"slo.direct_ms.{label}.L{level}").observe_many(
                [direct_ms[i] for i in rows]
            )
    for domain, count in sorted(Counter(domains or ()).items()):
        registry.counter(f"slo.domain.{label}.{domain}").inc(count)


@dataclass
class SLORow:
    """One family x level line of the SLO table."""

    family: str
    level: str  #: ``"all"`` or ``"L<k>"`` (k = common-domain depth)
    samples: int  #: offered lookups (all levels) / delivered at this level
    delivered: int
    availability: float  #: delivered / offered (family-wide)
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    stretch: float  #: mean lookup ms / mean direct ms (0 when no direct data)


class SLOReport:
    """A sorted collection of :class:`SLORow` built from a snapshot."""

    def __init__(self, rows: List[SLORow]) -> None:
        self.rows = rows

    @classmethod
    def from_snapshot(cls, snapshot: MetricsSnapshot) -> "SLOReport":
        """Parse every ``slo.*`` instrument in ``snapshot`` into rows."""
        lookups: Dict[Tuple[str, str], str] = {}
        for name in snapshot.histograms:
            if name.startswith(_LOOKUP_PREFIX):
                family, level = _split_level(name[len(_LOOKUP_PREFIX):])
                lookups[(family, level)] = name
        rows: List[SLORow] = []
        for (family, level), name in sorted(lookups.items()):
            hist = snapshot.histograms[name]
            count = int(hist["count"])
            mean = hist["sum"] / count if count else 0.0
            direct_name = _DIRECT_PREFIX + family + ("" if level == "all" else f".{level}")
            direct = snapshot.histograms.get(direct_name)
            stretch = 0.0
            if direct and direct["count"] and direct["sum"]:
                stretch = mean / (direct["sum"] / direct["count"])
            offered = int(snapshot.counters.get(f"slo.samples.{family}", 0))
            delivered = int(snapshot.counters.get(f"slo.delivered.{family}", 0))
            if level == "all":
                samples = offered or count
            else:
                samples = count
            availability = delivered / offered if offered else (1.0 if count else 0.0)
            rows.append(
                SLORow(
                    family=family,
                    level=level,
                    samples=samples,
                    delivered=delivered if level == "all" else count,
                    availability=availability,
                    p50_ms=snapshot.quantile(name, 0.50),
                    p95_ms=snapshot.quantile(name, 0.95),
                    p99_ms=snapshot.quantile(name, 0.99),
                    mean_ms=mean,
                    stretch=stretch,
                )
            )
        return cls(rows)

    @classmethod
    def from_json_file(cls, path: str) -> "SLOReport":
        """Build a report from an exported metrics-snapshot JSON file."""
        with open(path) as fh:
            return cls.from_snapshot(MetricsSnapshot.from_json(fh.read()))

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, family: str, level: str = "all") -> Optional[SLORow]:
        """The row for ``(family, level)``, or ``None``."""
        for row in self.rows:
            if row.family == family and row.level == level:
                return row
        return None

    # --------------------------------------------------------------- export

    def to_json(self, indent: int = 2) -> str:
        """JSON document: ``{"rows": [{family, level, ...}]}``."""
        return json.dumps({"rows": [asdict(r) for r in self.rows]}, indent=indent)

    def to_csv(self) -> str:
        """Flat CSV with one row per family x level."""
        lines = [
            "family,level,samples,delivered,availability,"
            "p50_ms,p95_ms,p99_ms,mean_ms,stretch"
        ]
        for r in self.rows:
            lines.append(
                f"{r.family},{r.level},{r.samples},{r.delivered},"
                f"{r.availability:.6f},{r.p50_ms:.6f},{r.p95_ms:.6f},"
                f"{r.p99_ms:.6f},{r.mean_ms:.6f},{r.stretch:.6f}"
            )
        return "\n".join(lines)

    def to_markdown(self, title: str = "SLO report") -> str:
        """GitHub-flavoured markdown table (for CI artifacts)."""
        if not self.rows:
            return f"**{title}**\n\nno slo.* instruments found in this snapshot"
        lines = [
            f"**{title}**",
            "",
            "| family | level | samples | avail | p50 ms | p95 ms "
            "| p99 ms | stretch |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for r in self.rows:
            stretch = f"{r.stretch:.3f}" if r.stretch else "-"
            lines.append(
                f"| {r.family} | {r.level} | {r.samples} "
                f"| {r.availability:.3f} | {r.p50_ms:.2f} | {r.p95_ms:.2f} "
                f"| {r.p99_ms:.2f} | {stretch} |"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """An aligned text table (what the report CLI prints)."""
        if not self.rows:
            return "no slo.* instruments found in this snapshot"
        headers = (
            "family", "level", "samples", "avail", "p50 ms", "p95 ms",
            "p99 ms", "stretch",
        )
        cells = [
            (
                r.family,
                r.level,
                str(r.samples),
                f"{r.availability:.3f}",
                f"{r.p50_ms:.2f}",
                f"{r.p95_ms:.2f}",
                f"{r.p99_ms:.2f}",
                f"{r.stretch:.3f}" if r.stretch else "-",
            )
            for r in self.rows
        ]
        widths = [
            max(len(headers[i]), max(len(row[i]) for row in cells))
            for i in range(len(headers))
        ]
        def fmt(row: Tuple[str, ...]) -> str:
            left = row[0].ljust(widths[0])
            rest = "  ".join(row[i].rjust(widths[i]) for i in range(1, len(row)))
            return f"{left}  {rest}"
        out = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        out.extend(fmt(row) for row in cells)
        return "\n".join(out)
