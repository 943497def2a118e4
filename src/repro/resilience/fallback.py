"""Graceful predictor degradation: a tiered fallback chain.

Scheduling experiments die in stupid ways: one graph fails the lint
preflight, one feature matrix picks up a NaN, one model raises — and the
whole sweep aborts.  :class:`FallbackPredictor` turns those per-sample
failures into per-sample downgrades instead: it tries each tier in order
(typically GNN → analytical baseline → conservative constant), validates
the result, and serves the first tier that produces a finite occupancy
in ``[0, 1]``.  The terminal constant tier cannot fail, so a scheduling
experiment fed a :class:`FallbackPredictor` always completes — with
degraded packing quality where inputs were bad, which is exactly the
trade a production scheduler makes.

Which tier served each prediction is observable: failures increment
``resilience_faults_total{component="predictor", tier=...}`` and every
non-primary serve increments ``resilience_fallbacks_total{tier=...}``;
per-instance ``tier_counts`` give the same numbers without a registry.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..obs import get_logger
from ..obs.metrics import counter

__all__ = ["FallbackPredictor", "gnn_tier", "analytical_tier",
           "constant_tier", "default_fallback_chain"]

_log = get_logger("resilience.fallback")

#: A tier: (name, fn) where fn(graph, device) -> float | (mean, std).
Tier = tuple[str, Callable]


class FallbackPredictor:
    """Serve predictions from the first healthy tier in a chain.

    Instances are drop-in workload predictors: ``wants_graph`` tells
    :func:`repro.sched.make_job` to pass the raw computation graph and
    device (so tier-internal encoding/lint failures stay catchable here)
    instead of pre-encoded features.
    """

    #: make_job calls us with (graph, device), not encoded features
    wants_graph = True

    def __init__(self, tiers: Sequence[Tier], conservative: float = 1.0):
        if not tiers:
            raise ValueError("need at least one tier")
        names = [name for name, _ in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        if not 0.0 <= conservative <= 1.0:
            raise ValueError("conservative constant must be in [0, 1]")
        self.tiers: list[Tier] = list(tiers)
        self.conservative = conservative
        #: serves per tier name (plus "conservative" for total exhaustion)
        self.tier_counts: dict[str, int] = {name: 0 for name in names}
        self.last_tier: str | None = None

    def __call__(self, graph, device=None) -> tuple[float, float]:
        """Predict ``(mean, std)`` occupancy, degrading tier by tier."""
        for rank, (name, fn) in enumerate(self.tiers):
            try:
                mean, std = self._validate(fn(graph, device))
            except Exception as exc:
                counter("resilience_faults_total", component="predictor",
                        tier=name).inc()
                _log.warning("prediction tier failed", extra={
                    "tier": name,
                    "graph": getattr(graph, "name", "") or "<graph>",
                    "error": f"{type(exc).__name__}: {exc}"})
                continue
            self._record(rank, name)
            return mean, std
        # Defensive terminal: reachable only if the caller built a chain
        # whose last tier can fail (the default chain's constant cannot).
        self._record(len(self.tiers), "conservative")
        return self.conservative, 0.0

    def _validate(self, out) -> tuple[float, float]:
        mean, std = out if isinstance(out, tuple) else (out, 0.0)
        mean, std = float(mean), float(std)
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise ValueError(f"non-finite prediction ({mean}, {std})")
        return min(1.0, max(0.0, mean)), max(0.0, std)

    def _record(self, rank: int, name: str) -> None:
        self.last_tier = name
        self.tier_counts[name] = self.tier_counts.get(name, 0) + 1
        if rank > 0:
            counter("resilience_fallbacks_total", tier=name).inc()

    def counts(self) -> dict[str, int]:
        """Copy of the per-tier serve counts."""
        return dict(self.tier_counts)


# --------------------------------------------------------------------- #
# Tier builders.  Heavy imports stay inside the closures so this module
# (imported by repro.resilience, reachable from repro.core) never drags
# the gpu/feature layers in at import time.
# --------------------------------------------------------------------- #

def gnn_tier(model, preflight: bool = True) -> Tier:
    """Primary tier: lint preflight, feature encoding, GNN inference.

    ``model`` is anything with ``predict(GraphFeatures) -> float`` (a
    :class:`repro.core.DNNOccu`, an ensemble, or a trained baseline).
    Raises — and thus falls through — on lint-gate errors, non-finite
    features, or model exceptions.
    """
    def _predict(graph, device):
        from ..features import encode_graph
        from ..lint import preflight_features, preflight_graph
        if preflight:
            preflight_graph(graph, device=device)
        feats = encode_graph(graph, device)
        preflight_features(feats, origin=getattr(graph, "name", ""))
        return float(model.predict(feats))
    return ("gnn", _predict)


def analytical_tier(predictor) -> Tier:
    """Middle tier: a fitted :class:`~repro.baselines.AnalyticalPredictor`.

    Skips the lint gate on purpose: graph-level summary statistics are
    robust to the structural defects that reject a graph from the GNN
    path, which is what makes this tier a useful fallback rather than a
    second copy of the same failure.
    """
    def _predict(graph, device):
        from ..features import encode_graph
        return float(predictor.predict_one(encode_graph(graph, device)))
    return ("analytical", _predict)


def constant_tier(value: float = 1.0) -> Tier:
    """Terminal tier: a conservative constant that can never fail.

    The default of 1.0 makes the scheduler treat an unpredictable job as
    saturating — it gets a GPU to itself, trading utilization for safety.
    """
    if not 0.0 <= value <= 1.0:
        raise ValueError("constant tier value must be in [0, 1]")
    return ("constant", lambda graph, device=None: float(value))


def default_fallback_chain(model=None, analytical=None,
                           conservative: float = 1.0) -> FallbackPredictor:
    """GNN → analytical → constant, skipping tiers without a backend."""
    tiers: list[Tier] = []
    if model is not None:
        tiers.append(gnn_tier(model))
    if analytical is not None:
        tiers.append(analytical_tier(analytical))
    tiers.append(constant_tier(conservative))
    return FallbackPredictor(tiers, conservative=conservative)
