"""Metrics registry: labeled counters, histograms, windowed time series.

This extends the raw :mod:`repro.common.stats` primitives (per-component
``CounterGroup`` bags) with the aggregation layer a long-running system
needs: metrics are *named once* in a registry, carry label dimensions
(design, workload, device, case ...), and export uniformly as JSON or
Prometheus-style text exposition.

The registry is pull-based and passive — components observe into it; it
never samples them — so simulation determinism is untouched and the whole
thing disappears when no registry is attached.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.stats import CounterGroup

#: Default cycle-latency buckets: roughly log-spaced over the range a
#: memory access can cost (L-cache-ish to queue-collapsed-NVM).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    10, 20, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800,
)

LabelKey = Tuple[str, ...]


def _label_key(label_names: Sequence[str], labels: Mapping[str, Any]) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {tuple(label_names)}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside quoted label values; anything else
    passes through verbatim.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(label_names: Sequence[str], key: LabelKey, extra: str = "") -> str:
    parts = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(label_names, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class LabeledCounter:
    """A monotonically increasing counter with fixed label dimensions."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def series(self) -> Iterable[Tuple[Dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield dict(zip(self.label_names, key)), value

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "values": [
                {"labels": labels, "value": value}
                for labels, value in self.series()
            ],
        }

    def exposition(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        if not self._values:
            return lines
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_format_labels(self.label_names, key)} {_num(value)}")
        return lines


class Histogram:
    """Fixed-bucket histogram with sum/count (Prometheus semantics).

    Buckets are upper bounds; a ``+Inf`` bucket is implicit. Used for the
    latency, compressed-size and sub-blocks-fetched distributions.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf overflow
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bucket whose bound is >= value; past the last, +Inf.
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th sample); +Inf samples report the largest seen."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile requires 0 <= q <= 1")
        if not self.total:
            return 0.0
        target = q * self.total
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return self.max if self.max is not None else math.inf

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def exposition(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            lines.append(f'{self.name}_bucket{{le="{_num(bound)}"}} {cumulative}')
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.total}')
        lines.append(f"{self.name}_sum {_num(self.sum)}")
        lines.append(f"{self.name}_count {self.total}")
        return lines


class TimeSeries:
    """Windowed gauge: keeps one (tick, value) point every ``every`` ticks.

    ``tick(value)`` is the per-access call; the point survives only when
    the call count crosses the window, so a million-access run keeps a
    bounded, evenly spaced series (ring-bounded by ``capacity``).
    """

    kind = "series"

    def __init__(
        self, name: str, help: str = "", every: int = 1000, capacity: int = 4096
    ) -> None:
        if every <= 0:
            raise ValueError("series window must be positive")
        self.name = name
        self.help = help
        self.every = every
        self.capacity = capacity
        self.ticks = 0
        self.points: List[Tuple[int, float]] = []

    def tick(self, value: float) -> None:
        self.ticks += 1
        if self.ticks % self.every:
            return
        self.points.append((self.ticks, float(value)))
        if len(self.points) > self.capacity:
            # Decimate rather than truncate: halve resolution, keep span.
            self.points = self.points[::2]
            self.every *= 2

    def next_due(self) -> int:
        """The tick count at which the next point will be recorded.

        Lets a batched driver compute values only at recording ticks:
        calling :meth:`sample_at` at every due tick (re-querying after
        each, since decimation widens the window) and :meth:`advance_to`
        at the end yields a series identical to per-access :meth:`tick`.
        """
        return (self.ticks // self.every + 1) * self.every

    def sample_at(self, tick: int, value: float) -> None:
        """Record the point for ``tick`` (must be a due tick)."""
        self.ticks = tick
        if tick % self.every:
            return
        self.points.append((tick, float(value)))
        if len(self.points) > self.capacity:
            self.points = self.points[::2]
            self.every *= 2

    def advance_to(self, tick: int) -> None:
        """Advance the tick count without recording (trailing partial
        window, exactly like per-access ticks past the last due point)."""
        if tick > self.ticks:
            self.ticks = tick

    @property
    def last(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "every": self.every,
            "points": [[t, v] for t, v in self.points],
        }

    def exposition(self) -> List[str]:
        # Prometheus has no native series type; expose the last value as
        # a gauge (the full series lives in the JSON export).
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} gauge",
            f"{self.name} {_num(self.last)}",
        ]


class MetricsRegistry:
    """Named home of every metric; registration is idempotent by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # -- registration -------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> LabeledCounter:
        return self._register(name, LabeledCounter, help=help, label_names=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(name, Histogram, help=help, buckets=buckets)

    def series(
        self, name: str, help: str = "", every: int = 1000, capacity: int = 4096
    ) -> TimeSeries:
        return self._register(
            name, TimeSeries, help=help, every=every, capacity=capacity
        )

    def _register(self, name: str, cls, **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[str]:
        return iter(self._metrics)

    # -- ingestion ----------------------------------------------------------
    def ingest_counter_group(
        self,
        name: str,
        group: CounterGroup,
        label: str = "event",
        help: str = "",
        **const_labels: Any,
    ) -> LabeledCounter:
        """Copy a component's ``CounterGroup`` snapshot into one labeled
        counter, one label value per counter key."""
        labels = (*const_labels.keys(), label)
        counter = self.counter(name, help=help, labels=labels)
        for key, value in group.as_dict().items():
            counter.inc(value, **const_labels, **{label: key})
        return counter

    # -- export -------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {name: metric.to_json() for name, metric in sorted(self._metrics.items())}

    def to_prometheus(self) -> str:
        lines: List[str] = []
        for _, metric in sorted(self._metrics.items()):
            lines.extend(metric.exposition())
        return "\n".join(lines) + ("\n" if lines else "")


def _num(value: float) -> str:
    """Render a number the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
