"""DNN-occu reproduction: GPU occupancy prediction for DL models with GNNs.

Reproduction of Mei et al., "GPU Occupancy Prediction of Deep Learning
Models Using Graph Neural Network" (IEEE CLUSTER 2023), built entirely on
NumPy:

* :mod:`repro.tensor` / :mod:`repro.nn` -- autograd engine and NN layers;
* :mod:`repro.graph` -- the computation-graph IR (ONNX stand-in);
* :mod:`repro.models` -- builders for every Table II architecture;
* :mod:`repro.gpu` -- simulated GPU substrate: occupancy calculator, kernel
  lowering, profiler (Nsight Compute / NVML stand-in);
* :mod:`repro.features` / :mod:`repro.data` -- Table I features, datasets;
* :mod:`repro.core` -- the DNN-occu model and trainer;
* :mod:`repro.baselines` -- MLP, LSTM, Transformer, DNNPerf, BRP-NAS;
* :mod:`repro.sched` -- trace-driven co-location scheduling (Table VI);
* :mod:`repro.metrics` -- MRE/MSE and bucketing;
* :mod:`repro.obs` -- observability: tracing spans, metrics registry,
  structured logging, Chrome-trace / Prometheus exporters;
* :mod:`repro.resilience` -- fault injection, checkpoint/restart, and
  graceful-degradation fallback chains (docs/resilience.md).
"""

__version__ = "1.2.0"

from . import (baselines, core, data, features, fleet, graph, gpu, metrics,
               models, nn, obs, resilience, sched, tensor)

__all__ = [
    "tensor", "nn", "graph", "models", "gpu", "features", "data", "core",
    "baselines", "sched", "metrics", "obs", "resilience", "fleet",
    "__version__",
]
