"""Metrics primitives: Counter / Gauge / Histogram + a registry.

Prometheus-shaped but dependency-free.  Instrumented code asks the module
for a handle (:func:`counter` / :func:`gauge` / :func:`histogram`); with
no registry installed — the default — the handle is a shared null metric
whose methods do nothing, so hot paths pay one global read per *call
site*, not per observation (handles are meant to be hoisted out of loops).
Call sites pass only a name and labels: a metric's help text and a
histogram's buckets are declared once, in :mod:`repro.obs.names`.

Exposition formats:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` / samples, cumulative ``_bucket`` series with
  ``le`` labels) scrapable by an actual Prometheus server;
* :meth:`MetricsRegistry.to_dict` — a JSON-friendly snapshot embedded in
  Chrome trace files by the CLI's ``--trace-out``.
"""

from __future__ import annotations

import json
import threading

from .names import declared_buckets, help_text

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "histogram_quantile", "counter", "gauge",
           "histogram", "get_registry", "install_registry",
           "uninstall_registry"]

#: Prometheus-style default histogram buckets (upper bounds).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                   5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def _label_string(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus clients do."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def histogram_quantile(buckets, cumulative, count: int,
                       q: float) -> float:
    """Quantile over cumulative bucket counts (shared with the SLO engine).

    Edge cases are pinned, not emergent:

    * ``count == 0`` → ``nan`` (no data is not a number);
    * ``q == 0`` → the lower edge of the first *non-empty* bucket
      (``0.0`` when that is the first bucket) — never the upper bound of
      an empty leading bucket;
    * ``q == 1`` → the upper bound of the bucket holding the final
      observation;
    * observations past the last finite bound (the implicit ``+Inf``
      bucket) clamp to the last finite bound, PromQL-style — including
      the all-in-overflow case, where every quantile returns it.

    Within the selected bucket the value is linearly interpolated;
    empty buckets are skipped so the quantile never lands on a bound
    no observation reached.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return float("nan")
    rank = q * count
    prev = 0
    for i, (bound, cum) in enumerate(zip(buckets, cumulative)):
        in_bucket = cum - prev
        if in_bucket > 0 and cum >= rank:
            lower = buckets[i - 1] if i else 0.0
            frac = (rank - prev) / in_bucket
            return lower + (bound - lower) * frac
        prev = cum
    return float(buckets[-1])


class _Metric:
    """Shared name/description/labels plumbing.

    The description is the help text declared for ``name`` in
    :data:`repro.obs.names.METRIC_NAMES`, read once at creation.
    """

    kind = "untyped"

    def __init__(self, name: str, *, labels: dict[str, str] | None = None):
        self.name = name
        self.description = help_text(name)
        self.labels = dict(labels or {})
        self._lock = threading.Lock()

    def _label_str(self) -> str:
        return _label_string(self.labels)


class Counter(_Metric):
    """Monotonically increasing value (events, errors, seconds of work)."""

    kind = "counter"

    def __init__(self, name: str, *, labels: dict[str, str] | None = None):
        super().__init__(name, labels=labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def samples(self) -> list[tuple[str, str, float]]:
        return [(self.name, self._label_str(), self.snapshot())]

    def snapshot(self):
        with self._lock:
            return self.value


class Gauge(_Metric):
    """Value that can go up and down (loss, lr, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, *, labels: dict[str, str] | None = None):
        super().__init__(name, labels=labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def samples(self) -> list[tuple[str, str, float]]:
        return [(self.name, self._label_str(), self.snapshot())]

    def snapshot(self):
        with self._lock:
            return self.value


class Histogram(_Metric):
    """Distribution over fixed buckets (kernel durations, occupancies).

    ``buckets`` defaults to the ones declared for ``name`` in
    :data:`repro.obs.names.METRIC_NAMES`, else :data:`DEFAULT_BUCKETS`.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None,
                 *, labels: dict[str, str] | None = None):
        super().__init__(name, labels=labels)
        if buckets is None:
            buckets = declared_buckets(name) or DEFAULT_BUCKETS
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending tuple")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break

    def state(self) -> tuple[list[int], int, float]:
        """Consistent ``(cumulative_counts, count, sum)`` triple.

        Taken under the metric lock, so concurrent ``observe`` calls can
        never produce a torn read where ``count`` disagrees with the
        bucket counts (the SLO engine differences these snapshots, which
        makes torn reads show up as phantom latency spikes).
        """
        with self._lock:
            counts = list(self.bucket_counts)
            count, total = self.count, self.sum
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out, count, total

    def quantile(self, q: float) -> float:
        """Prometheus-style ``histogram_quantile`` over this histogram.

        Bucket-resolution accuracy only; serve latency summaries
        (p50/p99) accept that tradeoff for O(1) memory.  Edge-case
        conventions (empty → ``nan``, q=0 → lower edge of the first
        non-empty bucket, overflow clamps to the last finite bound) are
        documented on :func:`histogram_quantile`.
        """
        cumulative, count, _ = self.state()
        return histogram_quantile(self.buckets, cumulative, count, q)

    def cumulative_counts(self) -> list[int]:
        """Prometheus ``le`` semantics: count of observations <= bound."""
        return self.state()[0]

    def samples(self) -> list[tuple[str, str, float]]:
        cumulative, count, total = self.state()
        base = dict(self.labels)
        out = []
        for bound, cum in zip(self.buckets, cumulative):
            label_str = _label_string({**base, "le": _fmt(bound)})
            out.append((f"{self.name}_bucket", label_str, float(cum)))
        out.append((f"{self.name}_bucket",
                    _label_string({**base, "le": "+Inf"}),
                    float(count)))
        out.append((f"{self.name}_sum", self._label_str(), total))
        out.append((f"{self.name}_count", self._label_str(),
                    float(count)))
        return out

    def snapshot(self):
        with self._lock:
            return {"count": self.count, "sum": self.sum,
                    "buckets": {_fmt(b): c for b, c in
                                zip(self.buckets, self.bucket_counts)}}


class _NullMetric:
    """Accepts every metric method and does nothing (registry absent)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Get-or-create store keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, _Metric] = {}

    def _get_or_create(self, cls, name: str,
                       labels: dict[str, str] | None) -> _Metric:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=labels)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}")
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels or None)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels or None)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, labels or None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __iter__(self):
        # snapshot under the lock: a concurrent _get_or_create during a
        # scrape must not raise "dict changed size during iteration"
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(metrics,
                           key=lambda m: (m.name, m._label_str())))

    # -- exposition ------------------------------------------------------ #
    def to_prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in self:
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.description:
                    lines.append(f"# HELP {metric.name} "
                                 f"{metric.description}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, label_str, value in metric.samples():
                lines.append(f"{sample_name}{label_str} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-friendly snapshot: name -> {kind, labels?, value}."""
        out: dict[str, list] = {}
        for metric in self:
            entry = {"kind": metric.kind, "value": metric.snapshot()}
            if metric.labels:
                entry["labels"] = dict(metric.labels)
            out.setdefault(metric.name, []).append(entry)
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# --------------------------------------------------------------------- #
# Global registry: None by default (instrumentation degrades to no-ops).
# --------------------------------------------------------------------- #
_registry: MetricsRegistry | None = None


def install_registry(registry: MetricsRegistry | None = None) \
        -> MetricsRegistry:
    global _registry
    # explicit None test: an empty registry is falsy (len 0) but valid
    _registry = registry if registry is not None else MetricsRegistry()
    return _registry


def uninstall_registry() -> None:
    global _registry
    _registry = None


def get_registry() -> MetricsRegistry | None:
    return _registry


def counter(name: str, **labels: str):
    """Global-registry counter handle (null metric when obs is off)."""
    reg = _registry
    if reg is None:
        return NULL_METRIC
    return reg.counter(name, **labels)


def gauge(name: str, **labels: str):
    """Global-registry gauge handle (null metric when obs is off)."""
    reg = _registry
    if reg is None:
        return NULL_METRIC
    return reg.gauge(name, **labels)


def histogram(name: str, **labels: str):
    """Global-registry histogram handle (null metric when obs is off)."""
    reg = _registry
    if reg is None:
        return NULL_METRIC
    return reg.histogram(name, **labels)
