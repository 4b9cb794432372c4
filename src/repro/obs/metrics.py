"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named collection of instruments:

- :class:`Counter` — a monotonically increasing count (messages by type,
  routes sampled, cache hits).
- :class:`Gauge` — a last-write-wins value (network size, average degree).
- :class:`Histogram` — fixed upper-bound buckets plus sum/count (hops,
  latency, node degree).  Fixed buckets make snapshots mergeable across
  runs and processes without rebinning.

:meth:`MetricsRegistry.snapshot` captures the registry as an immutable
:class:`MetricsSnapshot` supporting ``diff`` (what happened between two
points), ``merge`` (combine shards/runs) and loss-free JSON round-trips,
plus CSV export for spreadsheets.

A process-wide *active* registry can be installed with :func:`collecting`
(or :func:`activate`); instrumented call sites — the routing sampler, the
simulator's message layer — record into it when present and do nothing
otherwise.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .quantiles import (
    DEFAULT_RESERVOIR_CAP,
    ReservoirSample,
    bucket_quantile,
    percentile,
    pool_samples,
)

#: Default histogram upper bounds: powers of two cover hop counts and
#: latencies across every scale the experiments run at.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A last-write-wins named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed upper-bound buckets with sum and count.

    A value ``v`` lands in the first bucket whose bound satisfies
    ``v <= bound``; values above the last bound land in the implicit
    overflow bucket.  ``counts`` therefore has ``len(buckets) + 1`` slots.

    Alongside the buckets, each histogram keeps a bounded uniform
    reservoir of raw observations (:class:`~repro.obs.quantiles
    .ReservoirSample`) so :meth:`quantile` answers p50/p95/p99 as actual
    values — exact up to the reservoir capacity, an unbiased estimate
    beyond — instead of bucket-bound approximations.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "sample", "_bounds")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name}: buckets must be strictly increasing")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._bounds = np.asarray(self.buckets, dtype=np.float64)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.sample = ReservoirSample(name, DEFAULT_RESERVOIR_CAP)

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.sum += value
        self.count += 1
        self.sample.observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in one vectorized pass.

        Equivalent to calling :meth:`observe` per value (a value lands in
        the first bucket with ``v <= bound``) but bins the whole batch with
        one ``searchsorted`` + ``bincount``, and hands the reservoir the
        array itself.  ``values`` may be any sequence or numpy array.
        """
        arr = np.asarray(values, dtype=np.float64)
        if not arr.size:
            return
        binned = np.bincount(
            np.searchsorted(self._bounds, arr, side="left"), minlength=len(self.counts)
        )
        self.counts[:] = map(operator.add, self.counts, binned.tolist())
        self.sum += float(arr.sum())
        self.count += int(arr.size)
        self.sample.observe_many(arr)

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (fraction in [0, 1]) of the observations.

        Exact while the reservoir still holds every observation, a uniform
        subsample estimate beyond that, and a bucket interpolation only if
        the reservoir is somehow empty while counts are not.
        """
        if self.sample.seen:
            return self.sample.quantile(q)
        return bucket_quantile(self.buckets, self.counts, q)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """:meth:`quantile` for several fractions, sorting the sample once."""
        if self.sample.seen:
            ordered = sorted(self.sample.values)
            return [percentile(ordered, q) for q in qs]
        return [bucket_quantile(self.buckets, self.counts, q) for q in qs]


class MetricsRegistry:
    """Get-or-create store of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram named ``name``, created on first use.

        ``buckets`` only applies at creation; asking again with different
        buckets is an error (snapshots would stop merging cleanly).
        """
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, buckets)
        elif tuple(buckets) != inst.buckets and tuple(buckets) != DEFAULT_BUCKETS:
            raise ValueError(f"histogram {name} exists with different buckets")
        return inst

    def absorb(self, snapshot: "MetricsSnapshot") -> None:
        """Fold a snapshot's contents into this registry's live instruments.

        Counters and histogram bins add; gauges take the snapshot's value
        (last-writer-wins, matching :class:`Gauge`).  This is how the
        parallel experiment executor merges per-worker registries back into
        the parent process's active registry.
        """
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            self.gauge(name).set(value)
        for name, hist in snapshot.histograms.items():
            inst = self.histogram(name, tuple(hist["buckets"]))
            if list(inst.buckets) != list(hist["buckets"]):
                raise ValueError(f"histogram {name}: bucket bounds differ")
            for i, cnt in enumerate(hist["counts"]):
                inst.counts[i] += cnt
            inst.sum += hist["sum"]
            inst.count += hist["count"]
        for name, values in snapshot.samples.items():
            hist = snapshot.histograms.get(name)
            self.histogram(name).sample.absorb(values, hist["count"] if hist else 0)

    def message_sink_batch(
        self, prefix: str = "messages"
    ) -> Callable[[Mapping[str, int]], None]:
        """A ``{kind: n} -> None`` callable bulk-counting into ``{prefix}.{kind}``.

        Plug into :class:`repro.simulation.events.MessageStats` as
        ``batch_sink`` so per-kind counts accumulate locally and land here
        once per flush instead of once per message.
        """

        def sink(pending: Mapping[str, int]) -> None:
            for kind, n in pending.items():
                self.counter(f"{prefix}.{kind}").inc(n)

        return sink

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable copy of every instrument's current state."""
        return MetricsSnapshot(
            {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for n, h in sorted(self._histograms.items())
                },
                "samples": {
                    n: h.sample.values
                    for n, h in sorted(self._histograms.items())
                    if h.sample.seen
                },
            }
        )

    def to_json(self, indent: int = 2) -> str:
        """The current snapshot as a JSON document."""
        return self.snapshot().to_json(indent)

    def export_json(self, path: str, indent: int = 2) -> None:
        """Write the current snapshot as JSON."""
        self.snapshot().export_json(path, indent)

    def to_csv(self) -> str:
        """The current snapshot as CSV rows."""
        return self.snapshot().to_csv()

    def export_csv(self, path: str) -> None:
        """Write the current snapshot as CSV."""
        self.snapshot().export_csv(path)


class MetricsSnapshot:
    """A point-in-time copy of a registry, supporting diff/merge/round-trip.

    The payload is plain JSON-serialisable data shaped as::

        {"counters": {name: int},
         "gauges": {name: float},
         "histograms": {name: {"buckets": [...], "counts": [...],
                               "sum": float, "count": int}},
         "samples": {name: [raw observations retained by the histogram's
                            reservoir — what quantile() reads]}}
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = {
            "counters": dict(data.get("counters", {})),
            "gauges": dict(data.get("gauges", {})),
            "histograms": {
                name: dict(hist) for name, hist in data.get("histograms", {}).items()
            },
            "samples": {
                name: list(values)
                for name, values in data.get("samples", {}).items()
                if values
            },
        }

    # ------------------------------------------------------------ accessors

    @property
    def counters(self) -> Dict[str, int]:
        """Counter name -> value."""
        return self.data["counters"]

    @property
    def gauges(self) -> Dict[str, float]:
        """Gauge name -> value."""
        return self.data["gauges"]

    @property
    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Histogram name -> {buckets, counts, sum, count}."""
        return self.data["histograms"]

    @property
    def samples(self) -> Dict[str, List[float]]:
        """Histogram name -> retained raw observations (reservoir)."""
        return self.data["samples"]

    def quantile(self, name: str, q: float) -> float:
        """The ``q``-quantile of histogram ``name`` at snapshot time.

        Uses the retained reservoir sample when present (exact up to the
        reservoir capacity), falling back to bucket interpolation for
        snapshots recorded without samples.  Raises ``KeyError`` for an
        unknown histogram.
        """
        values = self.samples.get(name)
        if values:
            return percentile(sorted(values), q)
        hist = self.histograms[name]
        return bucket_quantile(hist["buckets"], hist["counts"], q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MetricsSnapshot) and self.data == other.data

    # ------------------------------------------------------------ operators

    def diff(self, older: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between ``older`` and this snapshot.

        Counters and histogram counts subtract; gauges keep this (newer)
        snapshot's value.
        """
        counters = {
            name: value - older.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, hist in self.histograms.items():
            old = older.histograms.get(name)
            if old is None:
                histograms[name] = dict(hist)
                continue
            if list(old["buckets"]) != list(hist["buckets"]):
                raise ValueError(f"histogram {name}: bucket bounds differ")
            histograms[name] = {
                "buckets": list(hist["buckets"]),
                "counts": [a - b for a, b in zip(hist["counts"], old["counts"])],
                "sum": hist["sum"] - old["sum"],
                "count": hist["count"] - old["count"],
            }
        return MetricsSnapshot(
            {
                "counters": counters,
                "gauges": dict(self.gauges),
                "histograms": histograms,
                # Reservoirs cannot be subtracted; keep the newer sample,
                # which covers everything up to this snapshot.
                "samples": {n: list(v) for n, v in self.samples.items()},
            }
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots (e.g. from parallel runs or shards).

        Counters and histograms add; for gauges, ``other`` wins on
        conflicts (last writer, matching :class:`Gauge` semantics).
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = {**self.gauges, **other.gauges}
        histograms = {name: dict(hist) for name, hist in self.histograms.items()}
        for name, hist in other.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = dict(hist)
                continue
            if list(mine["buckets"]) != list(hist["buckets"]):
                raise ValueError(f"histogram {name}: bucket bounds differ")
            histograms[name] = {
                "buckets": list(mine["buckets"]),
                "counts": [a + b for a, b in zip(mine["counts"], hist["counts"])],
                "sum": mine["sum"] + hist["sum"],
                "count": mine["count"] + hist["count"],
            }
        samples: Dict[str, List[float]] = {
            name: list(values) for name, values in self.samples.items()
        }
        for name, values in other.samples.items():
            samples[name] = pool_samples(
                name,
                samples.get(name, []),
                self.histograms.get(name, {}).get("count", 0),
                list(values),
                other.histograms.get(name, {}).get("count", 0),
            )
        return MetricsSnapshot(
            {
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
                "samples": samples,
            }
        )

    # --------------------------------------------------------------- export

    def to_json(self, indent: int = 2) -> str:
        """Loss-free JSON form (inverse of :meth:`from_json`)."""
        return json.dumps(self.data, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_json` output."""
        return cls(json.loads(text))

    def export_json(self, path: str, indent: int = 2) -> None:
        """Write :meth:`to_json` output to a file."""
        with open(path, "w") as fh:
            fh.write(self.to_json(indent) + "\n")

    def to_csv(self) -> str:
        """Flat ``kind,name,field,value`` rows (histograms one row per bucket)."""
        lines = ["kind,name,field,value"]
        for name, value in self.counters.items():
            lines.append(f"counter,{name},value,{value}")
        for name, value in self.gauges.items():
            lines.append(f"gauge,{name},value,{value}")
        for name, hist in self.histograms.items():
            for bound, count in zip(hist["buckets"], hist["counts"]):
                lines.append(f"histogram,{name},le_{bound},{count}")
            lines.append(f"histogram,{name},le_inf,{hist['counts'][-1]}")
            lines.append(f"histogram,{name},sum,{hist['sum']}")
            lines.append(f"histogram,{name},count,{hist['count']}")
        return "\n".join(lines)

    def export_csv(self, path: str) -> None:
        """Write :meth:`to_csv` output to a file."""
        with open(path, "w") as fh:
            fh.write(self.to_csv() + "\n")


# ----------------------------------------------------- active registry state

_active: Optional[MetricsRegistry] = None


def activate(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide active registry; returns it."""
    global _active
    _active = registry
    return registry


def deactivate() -> None:
    """Remove the active registry (instrumented call sites become no-ops)."""
    global _active
    _active = None


def active_registry() -> Optional[MetricsRegistry]:
    """The currently installed registry, or ``None``."""
    return _active


def record_counter(name: str, amount: int = 1) -> None:
    """Increment a counter on the active registry, if one is installed.

    The pay-for-what-you-use instrumentation idiom in one place: call sites
    stay a single line and cost a dict probe when no registry is active.
    """
    if amount and _active is not None:
        _active.counter(name).inc(amount)


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Activate a registry (a fresh one by default) for the ``with`` body."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = _active
    activate(registry)
    try:
        yield registry
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
