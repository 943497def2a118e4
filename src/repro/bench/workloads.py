"""Inputs shared by the suites: the served model and a distinct-graph grid."""

from __future__ import annotations

# The stock predictor (hidden 32, 4 heads, seed 7) every suite serves:
# the same weights a fleet worker builds, so serve, obs, trace and fleet
# numbers describe one model.
from ..fleet.worker import default_model_factory as service_model
from ..models import ModelConfig, build_model

__all__ = ["SMALL_MODELS", "distinct_graphs", "service_model"]

#: small-graph zoo slice: batching, routing and replay amortize
#: per-graph Python overhead, which small graphs keep visible (large
#: graphs are matmul-bound and every speedup converges to 1x)
SMALL_MODELS = ("lenet", "alexnet", "rnn", "lstm")
_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)


def distinct_graphs(count: int) -> list:
    """``count`` structurally distinct graphs (batch-size x model grid)."""
    graphs = []
    for bs in _BATCH_SIZES:
        for name in SMALL_MODELS:
            graphs.append(build_model(name, ModelConfig(batch_size=bs)))
            if len(graphs) == count:
                return graphs
    raise ValueError(f"grid exhausted below {count} graphs")
