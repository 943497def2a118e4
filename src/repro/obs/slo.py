"""Declarative SLOs over the metrics registry, with burn-rate math.

An :class:`SLOSpec` names an objective over the serving metrics — "p99
latency <= 50 ms over the last 60 s", "shed fraction <= 5%" — and the
:class:`SLOEngine` evaluates it from the *existing*
:class:`~repro.obs.metrics.MetricsRegistry`: no second measurement
pipeline, no new instrumentation.  The engine keeps a deque of
timestamped registry snapshots; a window evaluation differences the
newest snapshot against the newest one older than the window, so
cumulative counters/histograms turn into windowed rates exactly the way
a Prometheus ``increase()`` would.

Burn rate follows the SRE convention: *fraction of the error budget
consumed per unit of budget allowed*.  A ratio SLO with objective 5%
observing 10% bad requests burns at 2.0; a latency SLO burns at
``frac_above_objective / (1 - quantile)``.  Burn 1.0 means "exactly on
budget"; sustained burn > 1 exhausts the budget before the window ends.

``repro slo --check`` wires :meth:`SLOEngine.check` into CI: exit 1 on
any breached objective.  Timestamps are injected (``now=``) everywhere
so tests and the bench gate are deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .metrics import (Histogram, MetricsRegistry, counter,
                      histogram_quantile)

__all__ = ["SLOSpec", "SLOStatus", "SLOEngine", "default_serve_slos",
           "format_slo_report"]


@dataclass(frozen=True)
class SLOSpec:
    """One objective: either a latency quantile or a bad/total ratio.

    ``kind`` selects the evaluation:

    * ``"quantile"`` — ``histogram`` 's windowed q-quantile must be
      <= ``objective`` (seconds);
    * ``"ratio"`` — windowed ``bad_counter`` / ``total_counter`` must be
      <= ``objective`` (a fraction in (0, 1]).
    """

    name: str
    kind: str
    objective: float
    window_s: float = 60.0
    #: quantile kind
    histogram: str = "serve_latency_seconds"
    quantile: float = 0.99
    #: ratio kind
    bad_counter: str = ""
    total_counter: str = "serve_requests_total"
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("quantile", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.objective <= 0:
            raise ValueError("objective must be positive")
        if self.kind == "quantile" and not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.kind == "ratio" and not self.bad_counter:
            raise ValueError("ratio SLO needs a bad_counter")


@dataclass
class SLOStatus:
    """Result of evaluating one spec over one window."""

    spec: SLOSpec
    #: measured quantile (seconds) or bad fraction
    value: float
    ok: bool
    #: error-budget consumption rate; 1.0 = exactly on budget
    burn_rate: float
    #: 1 - burn_rate, floored at no lower bound (negative = overspent)
    budget_remaining: float
    #: observations (histogram delta count / counter total delta)
    samples: float
    window_s: float = 0.0

    def to_dict(self) -> dict:
        return {"name": self.spec.name, "kind": self.spec.kind,
                "objective": self.spec.objective, "value": self.value,
                "ok": self.ok, "burn_rate": self.burn_rate,
                "budget_remaining": self.budget_remaining,
                "samples": self.samples, "window_s": self.window_s}


def default_serve_slos() -> tuple[SLOSpec, ...]:
    """The serving path's stock objectives (override per deployment)."""
    return (
        SLOSpec(name="serve-p99-latency", kind="quantile",
                objective=0.050, quantile=0.99,
                histogram="serve_latency_seconds",
                description="p99 end-to-end latency <= 50 ms"),
        SLOSpec(name="serve-shed-rate", kind="ratio", objective=0.05,
                bad_counter="serve_shed_total",
                description="<= 5% of requests shed to the fallback "
                            "chain"),
        SLOSpec(name="serve-error-rate", kind="ratio", objective=0.01,
                bad_counter="serve_dispatch_errors_total",
                description="<= 1% of requests failed by dispatch "
                            "errors"),
    )


@dataclass(frozen=True)
class _Snapshot:
    t: float
    counters: dict
    histograms: dict = field(default_factory=dict)


class SLOEngine:
    """Evaluates :class:`SLOSpec` objectives over registry snapshots.

    Call :meth:`snapshot` periodically (every scrape, every bench
    iteration — whatever cadence the caller owns); :meth:`evaluate`
    differences the newest snapshot against the window baseline (the
    newest snapshot at or older than ``now - window_s``).  When no
    snapshot is that old the baseline is *empty* — the window degrades
    to "since process start", which keeps one-shot CLI checks
    meaningful.
    """

    def __init__(self, registry: MetricsRegistry,
                 specs=None, max_snapshots: int = 512):
        self.registry = registry
        self.specs: tuple[SLOSpec, ...] = \
            tuple(specs) if specs is not None else default_serve_slos()
        self._snapshots: deque[_Snapshot] = deque(maxlen=max_snapshots)

    # -- snapshotting ---------------------------------------------------- #
    def snapshot(self, now: float) -> None:
        """Record the registry's cumulative state at time ``now``."""
        counters: dict = {}
        histograms: dict = {}
        for metric in self.registry:
            if metric.kind == "counter":
                counters[metric.name] = \
                    counters.get(metric.name, 0.0) + metric.snapshot()
            elif isinstance(metric, Histogram):
                cumulative, count, _ = metric.state()
                prior = histograms.get(metric.name)
                if prior is not None and prior[0] == metric.buckets:
                    # merge label variants sharing one bucket layout
                    cumulative = [a + b for a, b in
                                  zip(prior[1], cumulative)]
                    count += prior[2]
                histograms[metric.name] = \
                    (metric.buckets, cumulative, count)
        self._snapshots.append(
            _Snapshot(t=float(now), counters=counters,
                      histograms=histograms))

    def _window(self, now: float, window_s: float) \
            -> tuple[_Snapshot, _Snapshot]:
        """(baseline, head) pair for a lookback of ``window_s``."""
        if not self._snapshots:
            raise RuntimeError("snapshot() the engine before evaluating")
        head = self._snapshots[-1]
        cutoff = float(now) - float(window_s)
        baseline = _Snapshot(t=cutoff, counters={})
        for snap in self._snapshots:
            if snap.t > cutoff or snap is head:
                break
            baseline = snap
        return baseline, head

    # -- evaluation ------------------------------------------------------ #
    def evaluate(self, now: float) -> list[SLOStatus]:
        """One :class:`SLOStatus` per spec, at bucket-resolution accuracy."""
        out = []
        for spec in self.specs:
            baseline, head = self._window(now, spec.window_s)
            if spec.kind == "ratio":
                status = self._eval_ratio(spec, baseline, head)
            else:
                status = self._eval_quantile(spec, baseline, head)
            status.window_s = head.t - baseline.t
            counter("slo_evaluations_total").inc()
            if not status.ok:
                counter("slo_violations_total").inc()
            out.append(status)
        return out

    def _eval_ratio(self, spec: SLOSpec, baseline: _Snapshot,
                    head: _Snapshot) -> SLOStatus:
        bad = head.counters.get(spec.bad_counter, 0.0) \
            - baseline.counters.get(spec.bad_counter, 0.0)
        total = head.counters.get(spec.total_counter, 0.0) \
            - baseline.counters.get(spec.total_counter, 0.0)
        if total <= 0:
            # no traffic in the window: vacuously within objective
            return SLOStatus(spec=spec, value=0.0, ok=True,
                             burn_rate=0.0, budget_remaining=1.0,
                             samples=0.0)
        frac = bad / total
        burn = frac / spec.objective
        return SLOStatus(spec=spec, value=frac,
                         ok=frac <= spec.objective, burn_rate=burn,
                         budget_remaining=1.0 - burn, samples=total)

    def _eval_quantile(self, spec: SLOSpec, baseline: _Snapshot,
                       head: _Snapshot) -> SLOStatus:
        head_h = head.histograms.get(spec.histogram)
        if head_h is None:
            return SLOStatus(spec=spec, value=0.0, ok=True,
                             burn_rate=0.0, budget_remaining=1.0,
                             samples=0.0)
        buckets, head_cum, head_count = head_h
        base_h = baseline.histograms.get(spec.histogram)
        if base_h is not None and base_h[0] == buckets:
            base_cum, base_count = base_h[1], base_h[2]
        else:
            base_cum, base_count = [0] * len(buckets), 0
        cum = [h - b for h, b in zip(head_cum, base_cum)]
        count = head_count - base_count
        if count <= 0:
            return SLOStatus(spec=spec, value=0.0, ok=True,
                             burn_rate=0.0, budget_remaining=1.0,
                             samples=0.0)
        value = histogram_quantile(buckets, cum, count, spec.quantile)
        # fraction of requests slower than the objective, at bucket
        # resolution: the largest bound <= objective is the honest
        # conservative cut line
        at_or_below = 0
        for bound, c in zip(buckets, cum):
            if bound <= spec.objective:
                at_or_below = c
        frac_above = max(0.0, (count - at_or_below) / count)
        burn = frac_above / (1.0 - spec.quantile)
        return SLOStatus(spec=spec, value=value,
                         ok=value <= spec.objective, burn_rate=burn,
                         budget_remaining=1.0 - burn,
                         samples=float(count))

    def check(self, now: float) -> tuple[bool, list[SLOStatus]]:
        """(all objectives met, statuses) — the ``repro slo --check`` gate."""
        statuses = self.evaluate(now)
        return all(s.ok for s in statuses), statuses

    def to_dict(self, now: float) -> dict:
        return {"slos": [s.to_dict() for s in self.evaluate(now)]}

    def to_json(self, now: float, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(now), indent=indent)


def format_slo_report(statuses) -> str:
    """Aligned text report, one line per objective."""
    if not statuses:
        return "(no SLOs configured)"
    rows = []
    for s in statuses:
        rows.append((
            "OK " if s.ok else "FAIL",
            s.spec.name,
            f"{s.value:.6g} <= {s.spec.objective:.6g}",
            f"burn={s.burn_rate:.2f}",
            f"budget={s.budget_remaining:+.2f}",
            f"n={s.samples:.0f}",
            f"window={s.window_s:.0f}s",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  " + "  ".join(c.ljust(w)
                                      for c, w in zip(r, widths))
                     for r in rows)
