"""Trace-driven co-location scheduling simulator (Section VI-B).

Event-driven simulation of a GPU cluster: jobs queue FIFO, a packing policy
admits them onto GPUs, and every running job progresses at a rate set by the
interference model from the *measured* occupancies of its co-residents
(policies only ever see predictions).  Produces the Table VI metrics:
makespan and time-averaged NVML utilization.

With a :class:`~repro.resilience.FaultInjector` (``faults=``), the cluster
additionally loses GPUs, crashes jobs mid-attempt, and mispredicts
occupancies.  Evicted jobs roll back to their last checkpoint interval
(or to zero without checkpointing), re-queue after a capped exponential
backoff, and are dropped once they exhaust the retry budget; the extra
:class:`ClusterResult` fields (evictions, retries, goodput vs. wasted
work, downtime) quantify how much of Table VI's occu-packing advantage
survives the chaos.  With ``faults=None`` the event loop computes exactly
what it always did — fault handling adds only ``inf`` event candidates —
so fault-free results stay bit-identical to the seed implementation.
"""

from __future__ import annotations

import contextlib
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as _np

from ..obs.context import request_scope
from ..obs.metrics import counter, gauge, histogram
from ..obs.tracing import span, tracing_enabled
from .interference import InterferenceModel
from .job import Job
from .policies import PackingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import FaultInjector

__all__ = ["ClusterResult", "simulate"]

_EPS = 1e-12


@dataclass
class ClusterResult:
    """Outcome of one simulated schedule."""

    policy_name: str
    num_gpus: int
    makespan_s: float
    jobs: list[Job]
    #: time integral of min(1, sum of resident jobs' NVML) per GPU
    nvml_integral_s: float
    #: time integral of GPU-busy (>= 1 resident job) per GPU
    busy_integral_s: float
    # -- resilience accounting (zero when simulated without faults) ----- #
    #: jobs kicked off a GPU by an outage or a crash
    evictions: int = 0
    #: evicted jobs that re-entered the queue (<= evictions)
    retries: int = 0
    #: jobs dropped after exhausting their retry budget
    failed_jobs: int = 0
    #: useful work completed: total standalone duration of finished jobs
    goodput_s: float = 0.0
    #: progress rolled back by evictions (work since the last checkpoint)
    wasted_s: float = 0.0
    #: time integral of unavailable GPUs over the makespan
    gpu_downtime_s: float = 0.0

    @property
    def completed(self) -> list[Job]:
        """Jobs that actually finished (failed jobs never do)."""
        return [j for j in self.jobs if j.finish_s is not None]

    @property
    def avg_nvml_utilization(self) -> float:
        """Cluster NVML utilization averaged over GPUs and the makespan."""
        denom = self.makespan_s * self.num_gpus
        return self.nvml_integral_s / denom if denom > 0 else 0.0

    @property
    def avg_jct(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(j.jct for j in done) / len(done)

    @property
    def avg_slowdown(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(j.slowdown for j in done) / len(done)

    @property
    def avg_stretch(self) -> float:
        """Mean interference-only execution stretch (queueing excluded)."""
        done = self.completed
        if not done:
            return 0.0
        return sum(j.stretch for j in done) / len(done)

    @property
    def avg_queue_delay(self) -> float:
        """Mean time jobs waited between arrival and (first) start."""
        done = self.completed
        if not done:
            return 0.0
        return sum(j.start_s - j.arrival_s for j in done) / len(done)

    @property
    def goodput_fraction(self) -> float:
        """Useful work / (useful + wasted) — 1.0 when nothing was lost."""
        total = self.goodput_s + self.wasted_s
        return self.goodput_s / total if total > 0 else 1.0

    def jct_percentile(self, q: float) -> float:
        """JCT percentile (``q`` in [0, 100]); tail-latency metric."""
        done = self.completed
        if not done:
            raise ValueError(
                "jct_percentile is undefined: no job completed")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        return float(_np.percentile([j.jct for j in done], q))


def simulate(jobs: Sequence[Job], num_gpus: int, policy: PackingPolicy,
             interference: InterferenceModel | None = None,
             placement: str = "first-fit",
             faults: "FaultInjector | None" = None) -> ClusterResult:
    """Run the schedule to completion and return cluster metrics.

    ``jobs`` are deep-copied logically by resetting their simulation state,
    so the same job list can be simulated under several policies.

    ``placement`` selects among the GPUs that admit a job:
    ``"first-fit"`` (lowest index, the default), ``"best-fit"`` (most
    loaded by scheduler-visible occupancy — consolidates), or
    ``"worst-fit"`` (least loaded — spreads).

    ``faults`` enables chaos: GPU outages evict all residents, crashed
    jobs evict themselves, both roll progress back to the last checkpoint
    interval and re-queue after backoff (until the retry budget runs
    out), and predictions may be perturbed before the first placement.
    The same injector seed yields an identical :class:`ClusterResult`.
    """
    if num_gpus <= 0:
        raise ValueError("need at least one GPU")
    if placement not in ("first-fit", "best-fit", "worst-fit"):
        raise ValueError(f"unknown placement {placement!r}")
    interference = interference or InterferenceModel()

    jobs = list(jobs)
    for job in jobs:
        job.remaining_s = job.duration_s
        job.start_s = None
        job.finish_s = None
        job.gpu_id = None
        job.ready_s = job.arrival_s
        job.evictions = 0
        job.retries = 0
        job.wasted_s = 0.0
        job.failed = False
        job.noisy_occupancy = None
    fault_cfg = faults.config if faults is not None else None
    if faults is not None and fault_cfg.mispredict_std > 0.0:
        for job in jobs:
            if job.predicted_occupancy is not None:
                job.noisy_occupancy = faults.perturb_occupancy(
                    job.job_id, job.predicted_occupancy)

    pending: deque[Job] = deque(
        sorted(jobs, key=lambda j: (j.ready_s, j.job_id)))
    running: list[list[Job]] = [[] for _ in range(num_gpus)]
    now = 0.0
    nvml_integral = 0.0
    busy_integral = 0.0
    downtime_integral = 0.0
    wasted_total = 0.0
    evictions_total = 0
    retries_total = 0
    failed: list[Job] = []

    # -- fault machinery (inert without an injector) --------------------- #
    up = [True] * num_gpus
    if faults is not None:
        transitions = [faults.transitions(g) for g in range(num_gpus)]
        next_trans: list[tuple[float, bool] | None] = [
            next(t, None) for t in transitions]
    else:
        transitions = []
        next_trans = [None] * num_gpus
    ckpt_interval = fault_cfg.checkpoint_interval_s if fault_cfg else None
    #: work-seconds into the current attempt at which a job crashes
    crash_work: dict[int, float] = {}
    #: work-seconds completed in the current attempt
    attempt_done: dict[int, float] = {}

    def _load(gpu_id: int) -> float:
        return sum(j.sched_occupancy for j in running[gpu_id])

    def _choose_gpu(job: Job) -> int | None:
        admitting = [g for g in range(num_gpus)
                     if up[g] and policy.admits(job, running[g])]
        if not admitting:
            # A job no policy admits even on an idle GPU must still run
            # somewhere; every real scheduler falls back to exclusive
            # placement rather than starving the queue.
            empty = [g for g in range(num_gpus)
                     if up[g] and not running[g]]
            return empty[0] if empty else None
        if placement == "first-fit":
            return admitting[0]
        if placement == "best-fit":
            return max(admitting, key=_load)
        return min(admitting, key=_load)  # worst-fit

    def _begin_attempt(job: Job) -> None:
        """Roll per-attempt fault state at (re)placement time."""
        if faults is None:
            return
        attempt_done[job.job_id] = 0.0
        frac = faults.crash_fraction(job.job_id, job.evictions)
        if frac is not None:
            crash_work[job.job_id] = frac * job.remaining_s
        else:
            crash_work.pop(job.job_id, None)

    def try_place() -> None:
        """FIFO head-of-line placement via the configured strategy."""
        while pending:
            job = pending[0]
            if job.ready_s > now + _EPS:
                break
            gpu_id = _choose_gpu(job)
            if gpu_id is None:
                break  # head-of-line blocking (FIFO, as in the paper)
            pending.popleft()
            job.gpu_id = gpu_id
            if job.start_s is None:
                job.start_s = now
            running[gpu_id].append(job)
            _begin_attempt(job)

    def _requeue(job: Job) -> None:
        """Insert preserving the (ready_s, job_id) queue order."""
        key = (job.ready_s, job.job_id)
        idx = len(pending)
        for i, queued in enumerate(pending):
            if (queued.ready_s, queued.job_id) > key:
                idx = i
                break
        pending.insert(idx, job)

    def _evict(job: Job, gpu_id: int, kind: str) -> None:
        """Kick ``job`` off its GPU: roll back, then retry or drop."""
        nonlocal evictions_total, retries_total, wasted_total
        running[gpu_id].remove(job)
        job.gpu_id = None
        crash_work.pop(job.job_id, None)
        attempt_done.pop(job.job_id, None)
        done = job.duration_s - job.remaining_s
        kept = 0.0
        if ckpt_interval:
            kept = min(done,
                       math.floor(done / ckpt_interval + 1e-9)
                       * ckpt_interval)
        lost = done - kept
        job.wasted_s += lost
        wasted_total += lost
        job.remaining_s = job.duration_s - kept
        job.evictions += 1
        evictions_total += 1
        fault_counters[kind].inc()
        if job.evictions > fault_cfg.max_retries:
            # Budget exhausted: the job is dropped; even its checkpointed
            # progress is work the cluster spent for nothing.
            job.failed = True
            job.wasted_s += kept
            wasted_total += kept
            failed.append(job)
            return
        job.retries += 1
        retries_total += 1
        job.ready_s = now + faults.requeue_delay(job.job_id, job.evictions)
        _requeue(job)

    def rates() -> dict[int, float]:
        """Progress rate of every running job under current co-location."""
        out: dict[int, float] = {}
        for residents in running:
            occs = [j.occupancy for j in residents]
            for i, job in enumerate(residents):
                others = occs[:i] + occs[i + 1:]
                out[job.job_id] = 1.0 / interference.slowdown(
                    job.occupancy, others)
        return out

    # Hoisted metric handles (no-ops when observability is off).
    queue_gauge = gauge("sched_queue_depth")
    busy_counters = [
        counter("sched_gpu_busy_seconds_total", gpu=str(g))
        for g in range(num_gpus)]
    events_total = counter("sched_events_total")
    fault_counters = {
        kind: counter("resilience_faults_total", component="sched", kind=kind)
        for kind in ("gpu_down", "crash")}
    retry_hist = histogram("resilience_retries")

    # One simulate run is one trace: request-scope the outer span (only
    # when tracing, so the untraced hot path mints no ids) and every
    # sched.event span inherits the run's trace_id/request_id.
    scope = request_scope() if tracing_enabled() \
        else contextlib.nullcontext()
    with scope, span("sched.simulate", policy=policy.name, gpus=num_gpus,
                     jobs=len(jobs), placement=placement,
                     faults=faults is not None):
        try_place()
        queue_gauge.set(len(pending))
        while pending or any(running):
            with span("sched.event", t=round(now, 6)) as ev:
                rate = rates()
                # Next completion among running jobs.
                dt_complete = min(
                    (job.remaining_s / rate[job.job_id]
                     for residents in running for job in residents),
                    default=float("inf"))
                # Next arrival (or post-backoff re-arrival).
                dt_arrival = min((job.ready_s - now for job in pending
                                  if job.ready_s > now + _EPS),
                                 default=float("inf"))
                # Next GPU availability transition (outage or recovery).
                dt_fault = min((trans[0] - now for trans in next_trans
                                if trans is not None),
                               default=float("inf"))
                # Next mid-attempt job crash.
                dt_crash = min(
                    ((crash_work[job.job_id] - attempt_done[job.job_id])
                     / rate[job.job_id]
                     for residents in running for job in residents
                     if job.job_id in crash_work),
                    default=float("inf"))
                dt = min(dt_complete, dt_arrival, dt_fault, dt_crash)
                if dt == float("inf"):
                    raise RuntimeError(
                        "deadlock: jobs pending but nothing runs, "
                        "arrives, or recovers (a job may violate the "
                        "policy even on an empty GPU, or every GPU may "
                        "be permanently down)")
                dt = max(dt, 0.0)

                # Integrate utilization during [now, now+dt).
                for gpu_id, residents in enumerate(running):
                    if residents:
                        busy_integral += dt
                        busy_counters[gpu_id].inc(dt)
                        nvml_integral += dt * min(
                            1.0,
                            sum(j.nvml_utilization for j in residents))
                if faults is not None:
                    downtime_integral += dt * sum(
                        1 for g in range(num_gpus) if not up[g])

                # Advance.
                now += dt
                for residents in running:
                    for job in residents:
                        progressed = dt * rate[job.job_id]
                        job.remaining_s -= progressed
                        if faults is not None:
                            attempt_done[job.job_id] += progressed
                finished_now = 0
                for gpu_id in range(num_gpus):
                    finished = [j for j in running[gpu_id]
                                if j.remaining_s <= _EPS]
                    for job in finished:
                        job.finish_s = now
                        job.remaining_s = 0.0
                        running[gpu_id].remove(job)
                        crash_work.pop(job.job_id, None)
                        attempt_done.pop(job.job_id, None)
                    finished_now += len(finished)

                # Fault events: crashes first (they concern jobs that are
                # still resident), then GPU availability transitions.
                if faults is not None:
                    for gpu_id in range(num_gpus):
                        due = [j for j in running[gpu_id]
                               if j.job_id in crash_work
                               and attempt_done[j.job_id]
                               >= crash_work[j.job_id] - _EPS]
                        for job in due:
                            _evict(job, gpu_id, "crash")
                    for gpu_id in range(num_gpus):
                        while next_trans[gpu_id] is not None \
                                and next_trans[gpu_id][0] <= now + _EPS:
                            _, becomes_up = next_trans[gpu_id]
                            up[gpu_id] = becomes_up
                            if not becomes_up:
                                for job in list(running[gpu_id]):
                                    _evict(job, gpu_id, "gpu_down")
                            next_trans[gpu_id] = next(
                                transitions[gpu_id], None)

                try_place()
                queue_gauge.set(len(pending))
                events_total.inc()
                ev.set_attr(dt=round(dt, 6), finished=finished_now,
                            queued=len(pending))

    if faults is not None:
        for job in jobs:
            retry_hist.observe(job.retries)

    return ClusterResult(
        policy_name=policy.name, num_gpus=num_gpus, makespan_s=now,
        jobs=jobs, nvml_integral_s=nvml_integral,
        busy_integral_s=busy_integral,
        evictions=evictions_total, retries=retries_total,
        failed_jobs=len(failed),
        goodput_s=sum(j.duration_s for j in jobs
                      if j.finish_s is not None),
        wasted_s=wasted_total, gpu_downtime_s=downtime_integral)
