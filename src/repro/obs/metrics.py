"""The process-wide metrics registry: counters, gauges, histograms.

Every layer's ad-hoc counters (``WireStats``, ``BridgeStats``, chaos
injections, portal fsyncs, shard queue waits) are re-homed here: the
component creates its handles once at construction via
:func:`get_registry` and keeps its existing public accessors as thin
views over the handle values.  ``python -m repro metrics`` renders the
registry as JSON or Prometheus text.

Threading model
---------------

Counter/gauge/histogram **mutation is not internally locked**: each
handle is owned by exactly one component and mutated under that
component's own lock (the wire transport's condition, the bridge's
condition, the store lock), exactly as the plain integer attributes they
replace were.  Re-homing therefore adds no locks to any hot path and no
new edges to the lock-order graph from component locks.  The registry's
own lock (role ``"obs-metrics"``, via
:func:`repro.analysis.runtime.make_lock`) only guards the metric-family
dict during get-or-create and snapshot iteration.

Naming scheme (see ``docs/observability.md``): ``<layer>_<noun>_<unit>``
with Prometheus conventions -- monotonic counters end in ``_total``,
histograms carry their unit suffix (``_s`` for seconds).  Components with
several live instances (one wire transport per module per shard)
disambiguate with an ``instance`` label from :func:`next_instance`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis.runtime import make_lock

__all__ = [
    "REGISTRY_LOCK_ROLE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "next_instance",
]

#: Lock-order-graph role name of the registry's family-dict lock.
REGISTRY_LOCK_ROLE = "obs-metrics"

#: Observations a histogram keeps for percentile estimates (count/sum are
#: exact forever; percentiles are over this recent window).
HISTOGRAM_WINDOW = 4096

_instance_ids = itertools.count(1)


def next_instance() -> str:
    """A process-unique instance label for per-component metric series."""
    return str(next(_instance_ids))


_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


class _Metric:
    """Shared identity: a name plus a frozen label set."""

    kind = "metric"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels: Dict[str, str] = {str(k): str(v) for k, v in (labels or {}).items()}

    def value_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "labels": dict(self.labels), **self.value_dict()}


class Counter(_Metric):
    """Monotonically increasing count; mutate only under the owning lock."""

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {value})")
        self._value += value

    @property
    def value(self) -> float:
        return self._value

    def value_dict(self) -> Dict[str, Any]:
        return {"value": self._value}


class Gauge(_Metric):
    """A point-in-time value; mutate only under the owning lock."""

    kind = "gauge"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, value: float = 1.0) -> None:
        self._value += value

    @property
    def value(self) -> float:
        return self._value

    def value_dict(self) -> Dict[str, Any]:
        return {"value": self._value}


class Histogram(_Metric):
    """Distribution with exact count/sum and windowed percentiles.

    The window (:data:`HISTOGRAM_WINDOW` most recent observations) bounds
    memory over long soaks; p50/p95 are therefore *recent* percentiles,
    which is what a fleet-status column wants anyway.  Two explicitly
    labelled time scopes are exposed so they are never mixed by accident:
    *lifetime* aggregates (:attr:`count`, :attr:`sum`, :attr:`mean`,
    observed max) cover every observation ever made, while *windowed*
    statistics (:attr:`window_count`, :attr:`window_mean`,
    :meth:`percentile`) cover only the recent window -- status tables that
    show percentiles should show :attr:`window_mean` beside them, so every
    latency column describes the same observations.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        window: int = HISTOGRAM_WINDOW,
    ) -> None:
        super().__init__(name, labels)
        if window < 1:
            raise ValueError(f"histogram window must be >= 1, got {window}")
        self._recent: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self._recent.append(value)
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        """Lifetime mean (every observation ever made; see class docstring)."""
        return self._sum / self._count if self._count else None

    @property
    def window_count(self) -> int:
        """Observations currently inside the recent window."""
        return len(self._recent)

    @property
    def window_mean(self) -> Optional[float]:
        """Mean over the recent window -- same scope as :meth:`percentile`."""
        if not self._recent:
            return None
        return sum(self._recent) / len(self._recent)

    def percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile over the recent window (``0 < f <= 1``)."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"percentile fraction must be in (0, 1], got {fraction}")
        values = sorted(self._recent)
        if not values:
            return None
        rank = max(int(math.ceil(fraction * len(values))) - 1, 0)
        return values[rank]

    def value_dict(self) -> Dict[str, Any]:
        # count/sum/mean/max are lifetime; window_count/window_mean/p50/p95
        # share the bounded recent window (see class docstring).
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "max": self._max if self._count else None,
            "window_count": self.window_count,
            "window_mean": self.window_mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }


class MetricsRegistry:
    """Get-or-create registry of metric handles keyed ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` return the existing handle when the
    exact name+labels pair was seen before (Prometheus semantics), so two
    components sharing a series also share its value -- components that
    must not share pass an ``instance`` label from :func:`next_instance`.
    """

    def __init__(self) -> None:
        self._lock = make_lock(REGISTRY_LOCK_ROLE)
        self._metrics: Dict[Tuple[str, _LabelKey], _Metric] = {}

    def _get_or_create(self, cls: type, name: str, labels: Optional[Dict[str, str]],
                       **kwargs: Any) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"  # type: ignore[attr-defined]
                )
        return metric

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        metric = self._get_or_create(Counter, name, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        metric = self._get_or_create(Gauge, name, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        window: int = HISTOGRAM_WINDOW,
    ) -> Histogram:
        metric = self._get_or_create(Histogram, name, labels, window=window)
        assert isinstance(metric, Histogram)
        return metric

    def metrics(self) -> List[_Metric]:
        """All registered handles, sorted by ``(name, labels)``."""
        with self._lock:
            items = sorted(self._metrics.items(), key=lambda item: item[0])
        return [metric for _, metric in items]

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-serialisable dump of every metric's current state."""
        return [metric.to_dict() for metric in self.metrics()]

    def to_json(self) -> Dict[str, Any]:
        """The ``python -m repro metrics --format json`` document."""
        return {"metrics": self.snapshot()}

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry.

        Counters/gauges render natively; histograms render their exact
        aggregates (``_count``/``_sum``) plus the windowed ``p50``/``p95``
        as quantile-labelled summary samples.
        """
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for metric in self.metrics():
            prom_type = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}[metric.kind]
            if seen_types.get(metric.name) != prom_type:
                lines.append(f"# TYPE {metric.name} {prom_type}")
                seen_types[metric.name] = prom_type
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{metric.name}{_prom_labels(metric.labels)} {_prom_value(metric.value)}")
            elif isinstance(metric, Histogram):
                base = metric.labels
                lines.append(f"{metric.name}_count{_prom_labels(base)} {metric.count}")
                lines.append(f"{metric.name}_sum{_prom_labels(base)} {_prom_value(metric.sum)}")
                for quantile, value in (("0.5", metric.percentile(0.50)), ("0.95", metric.percentile(0.95))):
                    if value is None:
                        continue
                    labels = dict(base)
                    labels["quantile"] = quantile
                    lines.append(f"{metric.name}{_prom_labels(labels)} {_prom_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry components bind their handles to."""
    return _default


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh default registry (tests); components built *after*
    the reset bind to the new one, existing handles keep the old."""
    global _default
    _default = MetricsRegistry()
    return _default
