"""Observability layer: tracing spans, metrics, structured logging.

Everything the reproduction records about itself flows through this
package.  It is intentionally zero-dependency (stdlib only) and inert by
default: until :func:`enable` installs a :class:`~repro.obs.Tracer` and a
:class:`~repro.obs.MetricsRegistry`, every instrumented call site in the
profiler, trainer, and scheduler degrades to a shared no-op object — the
hot paths pay one global read and an ``is None`` test.

Typical use (what ``repro ... --trace-out t.json`` does)::

    from repro import obs

    tracer, registry = obs.enable()
    try:
        ...  # run any instrumented workload
    finally:
        payload = obs.export_chrome_trace(tracer, registry)
        obs.disable()
    open("t.json", "w").write(payload)

Then ``repro obs t.json`` summarizes it, or open it in
``chrome://tracing`` / https://ui.perfetto.dev.
"""

from __future__ import annotations

import contextlib

from .context import (SpanContext, capture_context, current_context,
                      new_request_id, new_trace_id, request_scope,
                      reset_ids, use_context)
from .tracing import (SpanRecord, Tracer, get_tracer, install_tracer, span,
                      to_chrome_trace, tracing_enabled, uninstall_tracer)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, counter, gauge, get_registry,
                      histogram, histogram_quantile, install_registry,
                      uninstall_registry)
from .names import METRIC_NAMES, is_declared
from .logging import (LOG_LEVELS, KeyValueFormatter, configure_logging,
                      get_logger)
from .flight import FlightRecord, FlightRecorder, format_flight_table
from .slo import (SLOEngine, SLOSpec, SLOStatus, default_serve_slos,
                  format_slo_report)
from .summary import (SpanStat, format_metrics_table,
                      format_request_summary, load_trace_file,
                      request_groups, span_stats, span_tree,
                      summarize_trace)

__all__ = [
    "Tracer", "SpanRecord", "span", "get_tracer", "install_tracer",
    "uninstall_tracer", "tracing_enabled", "to_chrome_trace",
    "SpanContext", "current_context", "request_scope", "use_context",
    "capture_context", "new_trace_id", "new_request_id", "reset_ids",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "counter", "gauge", "histogram", "histogram_quantile", "get_registry",
    "install_registry", "uninstall_registry",
    "METRIC_NAMES", "is_declared",
    "configure_logging", "get_logger", "KeyValueFormatter", "LOG_LEVELS",
    "FlightRecord", "FlightRecorder", "format_flight_table",
    "SLOSpec", "SLOStatus", "SLOEngine", "default_serve_slos",
    "format_slo_report",
    "SpanStat", "load_trace_file", "span_stats", "summarize_trace",
    "format_metrics_table", "request_groups", "span_tree",
    "format_request_summary",
    "enable", "disable", "is_enabled", "observed", "export_chrome_trace",
]


def enable(tracer: Tracer | None = None,
           registry: MetricsRegistry | None = None) \
        -> tuple[Tracer, MetricsRegistry]:
    """Turn observability on: install a global tracer and registry."""
    return install_tracer(tracer), install_registry(registry)


def disable() -> None:
    """Turn observability off; call sites revert to the no-op fast path."""
    uninstall_tracer()
    uninstall_registry()


def is_enabled() -> bool:
    return tracing_enabled() or get_registry() is not None


@contextlib.contextmanager
def observed(tracer: Tracer | None = None,
             registry: MetricsRegistry | None = None):
    """Scope observability to a ``with`` block; yields (tracer, registry).

    Restores whatever tracer/registry (or none) was installed before, so
    nested scopes and tests cannot leak global state.
    """
    prev_tracer, prev_registry = get_tracer(), get_registry()
    pair = enable(tracer, registry)
    try:
        yield pair
    finally:
        if prev_tracer is None:
            uninstall_tracer()
        else:
            install_tracer(prev_tracer)
        if prev_registry is None:
            uninstall_registry()
        else:
            install_registry(prev_registry)


def export_chrome_trace(tracer: Tracer,
                        registry: MetricsRegistry | None = None,
                        **other_data) -> str:
    """Chrome-trace JSON with the registry snapshot under ``otherData``."""
    return to_chrome_trace(
        tracer,
        metrics=registry.to_dict() if registry is not None else None,
        other_data=other_data or None)
