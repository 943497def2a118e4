"""Component-level perf numbers behind the ``repro bench`` gates.

Each benchmark isolates one hot path touched by the repro.perf work:

* vectorized graph encoding (vs the scalar per-node reference);
* dense-batch collation;
* the batched DNN-occu forward (vs eight per-graph forwards);
* a warm content-addressed cache lookup (vs profile + encode + SPD).

The aggregated gate numbers (3x training, 2x generation, 1e-6
equivalence, bit-identity) come from ``python -m repro bench --check``;
see benchmarks/results/BENCH_perf.json.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DNNOccu, DNNOccuConfig
from repro.features import encode_graph
from repro.features.encode import encode_edge, encode_node
from repro.gpu import get_device, profile_graph
from repro.models import ModelConfig, build_model
from repro.perf import ProfileCache, collate, ensure_spd

# benchmarks/conftest.py: the one conftest module of the benchmark tree
# (a second one here would shadow it for the paper-table tests).
from conftest import report

DEVICE = get_device("A100")
#: one small CNN, one recurrent, one large transformer graph
MODELS = ("lenet", "lstm", "vit-t")
#: similar-size graphs for the dense-batch benchmarks — padding a
#: 14-node CNN to a 347-node ViT wastes ~96% of the dense compute,
#: which is the ``perf_batch_pad_waste`` histogram's job to surface,
#: not something to bake into a throughput number
BATCH_MODELS = ("lenet", "alexnet", "rnn", "lstm")


def _graphs():
    return [build_model(name, ModelConfig()) for name in MODELS]


def _features():
    feats = [encode_graph(build_model(name, ModelConfig()), DEVICE)
             for name in BATCH_MODELS]
    # batch_size=8 as in training
    feats = (feats * 2)[:8]
    for f in feats:
        ensure_spd(f)
    return feats


def test_encode_vectorized(benchmark):
    graphs = _graphs()
    nodes = sum(g.num_nodes for g in graphs)
    benchmark(lambda: [encode_graph(g, DEVICE) for g in graphs])
    rate = nodes / benchmark.stats.stats.min
    report("perf_encode", [
        f"vectorized encode_graph: {rate:,.0f} nodes/s "
        f"({nodes} nodes over {MODELS})"])


def test_encode_scalar_reference(benchmark):
    graphs = _graphs()

    def scalar():
        for g in graphs:
            np.stack([encode_node(g.nodes[i], DEVICE)
                      for i in sorted(g.nodes)])
            if g.edges:
                np.stack([encode_edge(e, DEVICE) for e in g.edges])

    benchmark(scalar)


def test_collate(benchmark):
    feats = _features()
    batch = benchmark(lambda: collate(feats))
    assert batch.num_graphs == len(feats)


def test_forward_batched(benchmark):
    feats = _features()
    model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=5)
    preds = benchmark(lambda: model.predict_batch(feats))
    assert preds.shape == (len(feats),)


def test_forward_per_graph_reference(benchmark):
    feats = _features()
    model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=5)
    benchmark(lambda: [model.predict(f) for f in feats])


def test_cache_warm_get(benchmark, tmp_path):
    graph = build_model("resnet-18", ModelConfig())
    cache = ProfileCache(str(tmp_path))
    cache.put(graph, DEVICE, profile_graph(graph, DEVICE),
              encode_graph(graph, DEVICE))
    entry = benchmark(lambda: cache.get(graph, DEVICE))
    assert entry is not None and not entry.oom
    report("perf_cache", [
        f"warm cache.get (resnet-18): {benchmark.stats.stats.min * 1e3:.2f} "
        "ms vs profile+encode+SPD on a miss"])
