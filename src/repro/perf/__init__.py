"""repro.perf: the performance layer.

Two prongs (see docs/performance.md; their gates live in
:mod:`repro.bench`):

* :mod:`repro.perf.batching` — masked dense batching so DNN-occu runs one
  vectorized forward/backward per minibatch;
* :mod:`repro.perf.cache` — content-addressed on-disk cache for profiled
  and encoded (graph, device) pairs.
"""

from .batching import (NEG_INF, GraphBatch, bucket_by_size, clear_spd_memo,
                       collate, ensure_spd, spd_memo_disabled)
from .cache import (PredictionCache, ProfileCache, cache_key, graph_key,
                    structure_key)

__all__ = ["NEG_INF", "GraphBatch", "bucket_by_size", "clear_spd_memo",
           "collate", "ensure_spd", "spd_memo_disabled", "ProfileCache",
           "PredictionCache", "cache_key", "graph_key", "structure_key"]
