"""Central metric-name registry: every series the reproduction emits.

Metric names are API.  A typo'd duplicate (``serve_shed_total`` vs
``serve_sheds_total``) silently splits one logical series into two and
every dashboard/SLO built on it under-counts — so the S007 lint pass
requires every literal name passed to :func:`repro.obs.counter` /
:func:`gauge` / :func:`histogram` (or the ``Counter``/``Gauge``/
``Histogram`` constructors) to be declared here.

This table is also the only place a series is described: a metric reads
its ``# HELP`` text (and a histogram its bucket bounds) from its entry
when it is created, so call sites pass only a name and labels.  Adding a
metric is one entry.  Genuinely ad-hoc series (tests, one-off
experiments) can opt out of S007 at the call site with
``# obs: adhoc-metric-ok``; they get no help text and, as histograms,
:data:`repro.obs.metrics.DEFAULT_BUCKETS`.

The registry also powers :func:`repro.obs.slo.SLOEngine` defaults and
keeps docs/observability.md's instrumentation table honest.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES", "is_declared", "help_text", "declared_buckets"]

#: name -> help string, or ``(help, bucket upper bounds)`` for a
#: histogram with its own buckets.  Keep alphabetized within each block.
METRIC_NAMES: dict[str, str | tuple[str, tuple[float, ...]]] = {
    # -- fleet ---------------------------------------------------------- #
    "fleet_fallbacks_total": "fleet tickets resolved by the fallback "
                             "chain, labeled by reason",
    "fleet_pending_requests": "fleet requests awaiting a worker result",
    # LRU hits through a failover retry that waits out the hang deadline
    # plus a restart backoff
    "fleet_request_latency_seconds": (
        "end-to-end fleet request latency",
        (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
         1.0, 2.5)),
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
    "lint_diagnostics_total": "lint diagnostics emitted, labeled by "
                              "severity",
    "lint_preflight_failures_total": "inputs rejected by a lint "
                                     "pre-flight gate, labeled by gate",
    "lockwatch_acquisitions_total": "lock acquisitions seen by the "
                                    "sanitizer, labeled by lock",
    "lockwatch_hold_seconds": "lock hold times seen by the sanitizer",
    "lockwatch_inversions_total": "observed lock-order inversions",
    # -- obs ------------------------------------------------------------ #
    "slo_evaluations_total": "SLO spec evaluations performed",
    "slo_violations_total": "SLO evaluations that breached objective",
    # -- perf ----------------------------------------------------------- #
    # padded slots / total slots, in [0, 1): the latency-shaped default
    # buckets would collapse every observation into two
    "perf_batch_pad_waste": (
        "fraction of padded node slots per collated minibatch",
        (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
    "perf_cache_corrupt_total": "profile-cache entries rejected by the "
                                "digest check",
    "perf_cache_hits_total": "profile-cache lookups served from disk",
    "perf_cache_misses_total": "profile-cache lookups that required "
                               "computing",
    "perf_spd_memo_hits_total": "SPD lookups served by the structure "
                                "memo",
    "perf_spd_memo_misses_total": "SPD computations not served by the "
                                  "structure memo",
    # -- profiler ------------------------------------------------------- #
    "profiler_kernel_duration_us": (
        "per-launch simulated kernel duration (microseconds)",
        (2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
         5000.0, 10000.0)),
    "profiler_kernel_occupancy": (
        "achieved occupancy per profiled kernel",
        (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
    "profiler_kernels_total": "kernel launches profiled",
    "profiler_oom_total": "profile attempts rejected by the memory model",
    # -- resilience ----------------------------------------------------- #
    "resilience_checkpoints_total": "checkpoints written, labeled by "
                                    "component",
    "resilience_fallbacks_total": "predictions served by a non-primary "
                                  "fallback tier, labeled by tier",
    "resilience_faults_total": "faults observed (corrupt checkpoint, "
                               "failed predictor tier, scheduler "
                               "gpu_down / crash), labeled by component "
                               "plus kind or tier",
    "resilience_restores_total": "checkpoints successfully restored, "
                                 "labeled by component",
    "resilience_retries": (
        "per-job retry counts over one fault-injected simulation",
        (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)),
    # -- sched ---------------------------------------------------------- #
    "sched_events_total": "simulator events processed",
    "sched_gpu_busy_seconds_total": "simulated seconds each GPU had >= 1 "
                                    "resident job, labeled by gpu",
    "sched_queue_depth": "jobs waiting for placement",
    # -- serve ---------------------------------------------------------- #
    # powers of two up to the typical max batch
    "serve_batch_size": (
        "requests coalesced per micro-batch flush",
        (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)),
    "serve_deadline_shed_total": "requests shed to the fallback chain by "
                                 "a caller-side result deadline",
    "serve_dispatch_errors_total": "requests failed by a dispatch "
                                   "exception",
    # sub-millisecond cache hits through ~tens of ms for a cold
    # deadline-flushed forward
    "serve_latency_seconds": (
        "end-to-end serve request latency",
        (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
         0.1, 0.25, 0.5, 1.0)),
    "serve_queue_depth": "requests waiting in the micro-batch queue",
    "serve_requests_total": "prediction requests accepted by the service",
    "serve_result_cache_hits_total": "serve requests answered from the "
                                     "result cache",
    "serve_result_cache_misses_total": "serve requests that needed a "
                                       "forward pass",
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
    "trainer_best_state_restores_total": "early-stopping restores of the "
                                         "best-validation weights",
    "trainer_loss": "mean train loss of the last epoch",
    "trainer_lr": "learning rate of the current epoch",
}


def is_declared(name: str) -> bool:
    return name in METRIC_NAMES


def help_text(name: str) -> str:
    """The declared help string of ``name`` ("" when undeclared)."""
    entry = METRIC_NAMES.get(name, "")
    return entry if isinstance(entry, str) else entry[0]


def declared_buckets(name: str) -> tuple[float, ...] | None:
    """The declared histogram buckets of ``name``, or None."""
    entry = METRIC_NAMES.get(name)
    return entry[1] if isinstance(entry, tuple) else None
