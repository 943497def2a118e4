"""Central metric-name registry: every series the reproduction emits.

Metric names are API.  A typo'd duplicate (``serve_shed_total`` vs
``serve_sheds_total``) silently splits one logical series into two and
every dashboard/SLO built on it under-counts — so the S007 lint pass
requires every literal name passed to :func:`repro.obs.counter` /
:func:`gauge` / :func:`histogram` (or the ``Counter``/``Gauge``/
``Histogram`` constructors) to be declared here.  Declaring is cheap:
add one line with a help string.  Genuinely ad-hoc series (tests,
one-off experiments) can opt out at the call site with
``# obs: adhoc-metric-ok``.

The registry also powers :func:`repro.obs.slo.SLOEngine` defaults and
keeps docs/observability.md's instrumentation table honest.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES", "is_declared"]

#: name -> one-line help string.  Keep alphabetized within each block.
METRIC_NAMES: dict[str, str] = {
    # -- fleet ---------------------------------------------------------- #
    "fleet_fallbacks_total": "fleet tickets resolved by the fallback "
                             "chain, labeled by reason",
    "fleet_pending_requests": "fleet requests awaiting a worker result",
    "fleet_request_latency_seconds": "end-to-end fleet request latency",
    "fleet_requests_total": "prediction requests accepted by the fleet",
    "fleet_retries_total": "orphaned requests rerouted to a sibling "
                           "worker after a worker death",
    "fleet_served_total": "fleet requests resolved by a worker, labeled "
                          "by cache tier",
    "fleet_shared_cache_hits_total": "fleet requests served from the "
                                     "shared on-disk prediction tier",
    "fleet_shared_cache_misses_total": "fleet forwards that missed the "
                                       "shared on-disk prediction tier",
    "fleet_stale_results_total": "late results from a detached worker "
                                 "incarnation, discarded",
    "fleet_worker_deaths_total": "fleet worker deaths, labeled by kind "
                                 "(kill / hang / exit)",
    "fleet_worker_restarts_total": "fleet workers restarted by the "
                                   "supervisor",
    # -- lint ----------------------------------------------------------- #
    "lint_concurrency_findings_total": "concurrency lint findings, "
                                       "labeled by code",
    "lint_diagnostics_total": "diagnostics emitted, labeled by code",
    "lint_preflight_failures_total": "graphs rejected by lint preflight",
    "lockwatch_acquisitions_total": "lock acquisitions seen by the "
                                    "sanitizer, labeled by lock",
    "lockwatch_hold_seconds": "lock hold times seen by the sanitizer",
    "lockwatch_inversions_total": "observed lock-order inversions",
    # -- obs ------------------------------------------------------------ #
    "slo_evaluations_total": "SLO spec evaluations performed",
    "slo_violations_total": "SLO evaluations that breached objective",
    # -- perf ----------------------------------------------------------- #
    "perf_batch_pad_waste": "padding fraction per batched forward",
    "perf_cache_corrupt_total": "dataset cache entries dropped as corrupt",
    "perf_cache_hits_total": "dataset cache hits",
    "perf_cache_misses_total": "dataset cache misses",
    "perf_spd_memo_hits_total": "SPD memo hits",
    "perf_spd_memo_misses_total": "SPD memo misses",
    "perf_worker_busy_seconds": "per-worker busy time in parallel "
                                "generation",
    # -- profiler ------------------------------------------------------- #
    "profiler_kernel_duration_us": "simulated kernel durations",
    "profiler_kernel_occupancy": "simulated kernel occupancies",
    "profiler_kernels_total": "kernels profiled",
    "profiler_oom_total": "profiles aborted by simulated OOM",
    # -- resilience ----------------------------------------------------- #
    "resilience_checkpoints_total": "checkpoints written",
    "resilience_fallbacks_total": "fallback-chain tier invocations",
    "resilience_faults_total": "injected faults, labeled by component "
                               "and kind",
    "resilience_restores_total": "checkpoint restores",
    "resilience_retries": "retry attempts per recovered operation",
    # -- sched ---------------------------------------------------------- #
    "sched_events_total": "simulator events processed",
    "sched_gpu_busy_seconds_total": "per-GPU busy time",
    "sched_queue_depth": "jobs waiting for a GPU",
    # -- serve ---------------------------------------------------------- #
    "serve_batch_size": "requests coalesced per micro-batch flush",
    "serve_deadline_shed_total": "requests shed to the fallback chain by "
                                 "a caller-side result deadline",
    "serve_dispatch_errors_total": "requests failed by a dispatch "
                                   "exception",
    "serve_encoding_cache_hits_total": "requests served a memoized "
                                       "encoding",
    "serve_encoding_cache_misses_total": "requests that had to encode "
                                         "features",
    "serve_latency_seconds": "end-to-end serve request latency",
    "serve_quality_abs_residual": "|prediction - simulator ground truth| "
                                  "for sampled requests",
    "serve_quality_ape": "absolute percentage error for sampled requests",
    "serve_quality_drift_alarms_total": "rolling-MAPE drift threshold "
                                        "crossings",
    "serve_quality_drift_score": "rolling MAPE over the quality window",
    "serve_quality_samples_total": "served predictions re-labeled by the "
                                   "quality monitor",
    "serve_queue_depth": "requests waiting in the micro-batch queue",
    "serve_requests_total": "prediction requests accepted by the service",
    "serve_result_cache_hits_total": "requests answered from the result "
                                     "cache",
    "serve_result_cache_misses_total": "requests that needed a forward "
                                       "pass",
    "serve_shed_total": "requests shed to the fallback chain (queue full)",
    # -- trace ---------------------------------------------------------- #
    "trace_arena_bytes": "bytes held by compiled-tape buffer arenas",
    "trace_cache_hits_total": "batched forwards replayed from a "
                              "compiled tape",
    "trace_cache_misses_total": "batched forwards that had to "
                                "trace+compile",
    "trace_fallback_total": "batched forwards that fell back to eager "
                            "after a trace or replay error",
    "trace_fused_ops_total": "tape ops eliminated by peephole fusion",
    # -- trainer -------------------------------------------------------- #
    "trainer_best_state_restores_total": "early-stop best-state restores",
    "trainer_loss": "training loss per epoch",
    "trainer_lr": "learning rate per epoch",
}


def is_declared(name: str) -> bool:
    return name in METRIC_NAMES

