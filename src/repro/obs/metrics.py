"""Metric aggregates: counters, gauges and histograms with labels.

Each metric series is identified by a :class:`MetricKey` — a name plus
a sorted tuple of ``(label, value)`` pairs — so the same instrument
name can fan out per module, per message kind, per node, etc.
Histograms keep streaming statistics (count/sum/min/max) plus
power-of-two bucket counts, which is enough to spot latency-tail
regressions without storing every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

#: histograms bucket by powers of two around 1.0; bucket ``i`` counts
#: samples with ``2**(i-1) < value <= 2**i`` after clamping to the range
_BUCKET_LO = -30  # ~1e-9 (nanoseconds when values are seconds)
_BUCKET_HI = 30  # ~1e9


@dataclass(frozen=True)
class MetricKey:
    """Identity of one metric series: name + sorted label pairs."""

    name: str
    labels: Tuple[Tuple[str, str], ...] = ()

    @staticmethod
    def make(name: str, labels: Mapping[str, Any]) -> "MetricKey":
        if not labels:
            return MetricKey(name)
        return MetricKey(
            name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        )

    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


def bucket_index(value: float) -> int:
    """Power-of-two bucket index of *value* (clamped to the table range)."""
    if value <= 0.0 or not math.isfinite(value):
        return _BUCKET_LO
    return min(max(math.ceil(math.log2(value)), _BUCKET_LO), _BUCKET_HI)


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``(low, high]`` value range of bucket *index*."""
    return (2.0 ** (index - 1), 2.0**index)


@dataclass
class HistogramData:
    """Streaming aggregate of one histogram series."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramData") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "HistogramData":
        hist = HistogramData(
            count=int(data.get("count", 0)),
            total=float(data.get("sum", 0.0)),
        )
        hist.min = float(data["min"]) if data.get("min") is not None else math.inf
        hist.max = float(data["max"]) if data.get("max") is not None else -math.inf
        hist.buckets = {int(k): int(v) for k, v in dict(data.get("buckets", {})).items()}
        return hist


def encode_series(metrics: Mapping[MetricKey, Any], kind: str) -> List[Dict[str, Any]]:
    """JSON-encode one metric family, sorted for deterministic output."""
    rows = []
    for key in sorted(metrics, key=lambda k: (k.name, k.labels)):
        value = metrics[key]
        encoded = value.to_dict() if kind == "histogram" else value
        rows.append({"name": key.name, "labels": key.label_dict(), "value": encoded})
    return rows


def decode_series(rows: List[Mapping[str, Any]], kind: str) -> Dict[MetricKey, Any]:
    """Inverse of :func:`encode_series`."""
    out: Dict[MetricKey, Any] = {}
    for row in rows:
        key = MetricKey.make(str(row["name"]), dict(row.get("labels", {})))
        value = row["value"]
        out[key] = HistogramData.from_dict(value) if kind == "histogram" else float(value)
    return out
