"""Prediction-quality telemetry: sampled re-labeling against ground truth.

Latency SLOs say the service is *fast*; nothing so far says it is
*right*.  Because the reproduction owns its ground truth (the kernel
simulator in :mod:`repro.gpu` — the same oracle that labeled the
training set), we can close the loop online: the
:class:`QualityMonitor` samples served predictions, re-labels them on a
background thread via :func:`repro.gpu.profile_graph`, and maintains

* rolling absolute-residual and APE windows (MAPE = mean APE),
* calibration bins over [0, 1] (mean predicted vs. mean actual
  occupancy per predicted-value decile),
* a **drift score** — the rolling MAPE — with a threshold alarm counter
  (``serve_quality_drift_alarms_total``), the trigger ROADMAP item 3's
  retraining hook will subscribe to.

Sampling is deterministic (every ``sample_every``-th offer, counted
from the first), re-labeling is off the serving path (bounded queue;
overflow drops the sample, never blocks a request), and
:meth:`QualityMonitor.flush` gives tests a barrier: after it returns,
every accepted sample is reflected in :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..lint.sanitizer import new_condition, new_lock
from ..obs import get_logger
from ..obs.metrics import counter, gauge, histogram

__all__ = ["QualityMonitor", "simulator_labeler"]

_log = get_logger("serve.quality")


def simulator_labeler(graph, device) -> float:
    """Ground-truth occupancy from the simulator (the training oracle)."""
    from ..gpu import profile_graph
    return float(profile_graph(graph, device).occupancy)


class QualityMonitor:
    """Samples served predictions and re-labels them off-thread.

    Parameters
    ----------
    labeler:
        ``labeler(graph, device) -> float`` ground truth; defaults to
        :func:`simulator_labeler`.
    sample_every:
        Sample the 1st, ``1 + sample_every``-th, ... offer (1 = every
        request; serving-rate deployments want 50-100).
    window:
        Rolling window length for MAPE / residual stats.
    drift_threshold:
        Rolling MAPE above this (with at least ``min_samples`` labeled)
        counts a drift alarm.
    min_samples:
        Alarm suppression until the window has this many labels.
    calibration_bins:
        Number of equal-width predicted-occupancy bins over [0, 1].
    queue_depth:
        Pending re-label bound; overflow drops the sample (the serving
        path never blocks on the labeler).
    """

    def __init__(self, *, labeler=None, sample_every: int = 16,
                 window: int = 256, drift_threshold: float = 0.15,
                 min_samples: int = 8, calibration_bins: int = 10,
                 queue_depth: int = 64):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        if calibration_bins < 1:
            raise ValueError("calibration_bins must be >= 1")
        self.labeler = labeler if labeler is not None \
            else simulator_labeler
        self.sample_every = int(sample_every)
        self.drift_threshold = float(drift_threshold)
        self.min_samples = int(min_samples)

        self._lock = new_lock("QualityMonitor._lock")
        self._offered = 0
        self._sampled = 0
        self._dropped = 0
        self._labeled = 0
        self._alarms = 0
        self._residuals: deque[float] = deque(maxlen=window)
        self._apes: deque[float] = deque(maxlen=window)
        # bin -> [count, sum_predicted, sum_actual]
        self._bins = [[0, 0.0, 0.0] for _ in range(calibration_bins)]

        self._cond = new_condition("QualityMonitor._cond")
        self._pending: deque = deque()
        self._queue_depth = int(queue_depth)
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-quality", daemon=True)
        self._thread.start()

    # -- serving-path side ----------------------------------------------- #
    def offer(self, graph, device, prediction: float) -> bool:
        """Offer one served prediction; True when it was sampled."""
        with self._lock:
            self._offered += 1
            if (self._offered - 1) % self.sample_every != 0:
                return False
            self._sampled += 1
        with self._cond:
            if self._closed or len(self._pending) >= self._queue_depth:
                with self._lock:
                    self._dropped += 1
                return False
            self._pending.append((graph, device, float(prediction)))
            self._cond.notify_all()
        return True

    # -- labeling thread -------------------------------------------------- #
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                item = self._pending.popleft()
            try:
                self._label(*item)
            except Exception as exc:
                with self._lock:
                    self._labeled += 1  # consumed, even if the label failed
                _log.warning("quality re-label failed", extra={
                    "error": type(exc).__name__})
            with self._cond:
                self._cond.notify_all()  # wake flush() waiters

    def _label(self, graph, device, prediction: float) -> None:
        actual = float(self.labeler(graph, device))
        residual = prediction - actual
        ape = abs(residual) / max(abs(actual), 1e-6)
        counter("serve_quality_samples_total").inc()
        histogram("serve_quality_abs_residual").observe(abs(residual))
        histogram("serve_quality_ape").observe(ape)
        with self._lock:
            self._labeled += 1
            self._residuals.append(residual)
            self._apes.append(ape)
            b = min(len(self._bins) - 1,
                    int(max(0.0, min(prediction, 1.0)) * len(self._bins)))
            self._bins[b][0] += 1
            self._bins[b][1] += prediction
            self._bins[b][2] += actual
            drift = sum(self._apes) / len(self._apes)
            alarm = len(self._apes) >= self.min_samples \
                and drift > self.drift_threshold
            if alarm:
                self._alarms += 1
        gauge("serve_quality_drift_score").set(drift)
        if alarm:
            counter("serve_quality_drift_alarms_total").inc()
            _log.warning("prediction drift above threshold", extra={
                "drift": round(drift, 4),
                "threshold": self.drift_threshold})

    # -- introspection / lifecycle ---------------------------------------- #
    def flush(self, timeout: float = 10.0) -> bool:
        """Block until every accepted sample is labeled (test barrier)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        # the worker may have popped the last item but not finished it
        with self._cond:
            while True:
                with self._lock:
                    done = self._labeled >= self._sampled - self._dropped
                if done:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)

    def drift_score(self) -> float:
        """Rolling MAPE (nan with no labeled samples yet)."""
        with self._lock:
            if not self._apes:
                return float("nan")
            return sum(self._apes) / len(self._apes)

    def calibration(self) -> list[dict]:
        """Per-bin mean predicted vs. mean actual occupancy."""
        out = []
        with self._lock:
            n = len(self._bins)
            for i, (count, p_sum, a_sum) in enumerate(self._bins):
                entry = {"lo": i / n, "hi": (i + 1) / n, "count": count}
                if count:
                    entry["mean_predicted"] = p_sum / count
                    entry["mean_actual"] = a_sum / count
                out.append(entry)
        return out

    def stats(self) -> dict:
        with self._lock:
            residuals = list(self._residuals)
            apes = list(self._apes)
            out = {"offered": self._offered, "sampled": self._sampled,
                   "dropped": self._dropped, "labeled": self._labeled,
                   "alarms": self._alarms,
                   "drift_threshold": self.drift_threshold}
        out["mape"] = sum(apes) / len(apes) if apes else float("nan")
        out["mean_residual"] = sum(residuals) / len(residuals) \
            if residuals else float("nan")
        out["max_abs_residual"] = max((abs(r) for r in residuals),
                                      default=float("nan"))
        out["calibration"] = self.calibration()
        return out

    def close(self, timeout: float = 5.0) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "QualityMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
