"""repro.serve: the online prediction service.

The deployment story of the paper (occu-packing scheduling driven by
pre-execution predictions) assumes cheap, repeated occupancy queries.
This package provides them (see docs/serving.md):

* :mod:`repro.serve.batcher` — adaptive micro-batching: concurrent
  single-graph requests coalesce into one masked dense forward, flushed
  on max-batch-size or a ~2 ms deadline, whichever first;
* :mod:`repro.serve.service` — warm :class:`ModelSession` (preloaded
  weights + content-addressed result/encoding caches) behind the
  synchronous :class:`PredictorService` facade, with bounded-queue
  overload shedding into the resilience fallback chain;
* :mod:`repro.serve.quality` — background :class:`QualityMonitor`
  re-labeling sampled predictions against the simulator (rolling MAPE,
  calibration bins, drift alarms; see docs/observability.md).

Its throughput/latency gates are ``repro bench --suite serve``
(:mod:`repro.bench.serve`).

Requests are request-scoped for observability: each carries a
``request_id``/``trace_id`` across the batcher's thread handoff, lands
in the service's flight-recorder ring, and renders as one connected
span tree in Chrome-trace exports.
"""

from .batcher import MicroBatcher, QueueFullError, Ticket
from .quality import QualityMonitor, simulator_labeler
from .service import ModelSession, PredictorService

__all__ = ["MicroBatcher", "QueueFullError", "Ticket", "ModelSession",
           "PredictorService", "QualityMonitor", "simulator_labeler"]
