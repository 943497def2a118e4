"""Offline-path suites: encoding, batched training, dataset generation.

* **encode** — node-encoding throughput of the vectorized
  :func:`~repro.features.encode_graph` vs the scalar per-node reference;
* **train** — training samples/sec of ``Trainer.fit(batched=True)`` vs
  the per-graph path at the paper's ``batch_size=8``, the
  batched-vs-per-graph forward/gradient equivalence gap, and the memory
  of one training step on four vit-t graphs (reported, not gated);
* **generate** — dataset-generation wall time cold and with a warm
  content-addressed cache, with bit-identity asserted across the
  reference, cold-cache and warm datasets (see docs/performance.md).
"""

from __future__ import annotations

import hashlib
import tempfile
import time
import tracemalloc

import numpy as np

from ..core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
from ..data import SEEN_MODELS, Dataset, generate_dataset
from ..features import encode_graph
from ..features.encode import encode_edge, encode_node
from ..gpu import get_device
from ..models import ModelConfig, build_model
from ..perf.batching import (bucket_by_size, clear_spd_memo, collate,
                             ensure_spd, spd_memo_disabled)
from ..tensor import Tensor
from .timing import paired_medians

__all__ = ["bench_encode", "encode_line", "bench_train", "train_line",
           "bench_generate", "generate_line"]

#: similar-size graphs batch densely; the padding waste of mixing
#: a 7-node RNN with a 347-node ViT is itself measured by the
#: ``perf_batch_pad_waste`` histogram, not hidden in this benchmark
_TRAIN_MODELS = ("lenet", "alexnet", "rnn", "lstm")
_ENCODE_MODELS = ("lenet", "alexnet", "resnet-18", "rnn", "lstm", "vit-t")
#: profile-heavy models: the cache replaces simulation + encoding + SPD,
#: so the generation gate uses graphs where those dominate graph building
_GEN_MODELS = ("resnet-50", "vit-s")


def _fingerprint(ds: Dataset) -> str:
    """Content hash of every array and label in a dataset (bit-exact)."""
    h = hashlib.sha256()
    for s in ds:
        h.update(s.features.node_features.tobytes())
        h.update(s.features.edge_features.tobytes())
        h.update(np.ascontiguousarray(s.features.edge_index).tobytes())
        h.update(repr((s.occupancy, s.nvml_utilization, s.wall_time_s,
                       s.model_name, s.device_name)).encode())
    return h.hexdigest()


def bench_encode(scale: float) -> dict:
    """Vectorized vs scalar-reference encoding throughput."""
    device = get_device("A100")
    graphs = [build_model(n, ModelConfig()) for n in _ENCODE_MODELS]
    reps = max(3, int(round(10 * scale)))
    nodes = sum(g.num_nodes for g in graphs)

    t0 = time.perf_counter()
    for _ in range(reps):
        for g in graphs:
            encode_graph(g, device)
    vec_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        for g in graphs:
            order = sorted(g.nodes)
            np.stack([encode_node(g.nodes[nid], device) for nid in order])
            if g.edges:
                np.stack([encode_edge(e, device) for e in g.edges])
    ref_s = time.perf_counter() - t0

    return {
        "models": list(_ENCODE_MODELS), "repeats": reps,
        "nodes_per_graph_set": nodes,
        "vectorized_nodes_per_s": nodes * reps / vec_s,
        "scalar_nodes_per_s": nodes * reps / ref_s,
        "speedup": ref_s / vec_s,
    }


def encode_line(e: dict) -> str:
    return (f"{e['vectorized_nodes_per_s']:,.0f} nodes/s (scalar "
            f"{e['scalar_nodes_per_s']:,.0f}; {e['speedup']:.1f}x)")


def bench_train(scale: float) -> dict:
    """Batched vs per-graph training throughput + equivalence gap."""
    device = get_device("A100")
    ds = generate_dataset(_TRAIN_MODELS, [device],
                          configs_per_model=max(4, int(round(6 * scale))),
                          seed=11)
    epochs = max(2, int(round(3 * scale)))
    feats = [s.features for s in ds]
    ys = np.array([s.occupancy for s in ds])

    # A deliberately small model: the batched path's win is eliminating
    # per-graph Python/tape overhead, which a micro-benchmark should
    # isolate rather than drown in matmul time.
    def fit(batched: bool) -> None:
        model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=5)
        trainer = Trainer(model, TrainConfig(
            epochs=epochs, batch_size=8, lr=1e-3, seed=5, preflight=False))
        trainer.fit(ds, batched=batched)

    # Paired, so a contended second of a shared host lands on both sides
    # of a pair rather than on one side's whole block of repeats.  Nine
    # pairs, not five: on a shared 2-CPU host, five-pair blocks of one
    # 48-pair run read 2.6-4.3x, nine-pair blocks 3.4-3.7x.
    pairs = 9
    per_graph_s, batched_s = paired_medians(
        lambda: fit(batched=False), lambda: fit(batched=True), pairs)

    # Equivalence gap on an untrained model: forward over the whole set,
    # gradients over one batch_size=8 minibatch.
    model = DNNOccu(DNNOccuConfig(hidden=64, num_heads=4), seed=5)
    per_preds = np.array([float(model.forward(f).data) for f in feats])
    bat_preds = model.predict_batch(feats)
    max_fwd_diff = float(np.abs(per_preds - bat_preds).max())

    k = min(8, len(feats))
    model.zero_grad()
    loss = None
    for f, y in zip(feats[:k], ys[:k]):
        err = (model.forward(f) - y) ** 2
        loss = err if loss is None else loss + err
    (loss * (1.0 / k)).backward()
    ref_grads = [p.grad.copy() for p in model.parameters()]
    model.zero_grad()
    preds = model.forward_batch(collate(feats[:k]))
    (((preds - Tensor(ys[:k])) ** 2).sum() * (1.0 / k)).backward()
    max_grad_diff = float(max(
        np.abs(p.grad - g).max()
        for p, g in zip(model.parameters(), ref_grads)))

    n = len(ds) * epochs
    return {
        "models": list(_TRAIN_MODELS), "samples": len(ds),
        "epochs": epochs, "batch_size": 8, "pairs": pairs,
        "per_graph_samples_per_s": n / per_graph_s,
        "batched_samples_per_s": n / batched_s,
        "speedup": per_graph_s / batched_s,
        "max_fwd_diff": max_fwd_diff,
        "max_grad_diff": max_grad_diff,
        **_step_memory(),
    }


def _step_memory() -> dict:
    """tracemalloc bytes of one batched training step, as ``Trainer.fit``
    runs it, on a fixed minibatch: the four vit-t graphs (347 nodes) and
    the first four others of the ``train-epoch`` set (``SEEN_MODELS`` on
    P40, 4 configs each, seed 1), through DNN-occu as ``repro predict``
    builds it.  ``step_tape_mib`` is what the forward leaves on the tape,
    ``step_peak_mib`` the peak through backward."""
    ds = generate_dataset(SEEN_MODELS, [get_device("P40")],
                          configs_per_model=4, seed=1)
    samples = [s for s in ds if s.model_name == "vit-t"][:4] \
        + [s for s in ds if s.model_name != "vit-t"][:4]
    feats = [s.features for s in samples]
    for f in feats:
        ensure_spd(f)
    ys = np.array([s.occupancy for s in samples])
    model = DNNOccu(DNNOccuConfig(hidden=48, num_heads=4), seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = None
        for idx, chunk in bucket_by_size(feats, len(feats)):
            err = ((model.forward_batch(collate(chunk))
                    - Tensor(ys[idx])) ** 2).sum()
            loss = err if loss is None else loss + err
        tape = tracemalloc.get_traced_memory()[0] - base
        (loss * (1.0 / len(feats))).backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"step_tape_mib": tape / 2**20, "step_peak_mib": peak / 2**20}


def train_line(t: dict) -> str:
    return (f"batched {t['batched_samples_per_s']:.1f} samples/s vs "
            f"per-graph {t['per_graph_samples_per_s']:.1f} "
            f"({t['speedup']:.1f}x); max fwd diff {t['max_fwd_diff']:.2e}, "
            f"grad {t['max_grad_diff']:.2e}; 4-vit-t step tape "
            f"{t['step_tape_mib']:.1f} MiB, peak {t['step_peak_mib']:.1f} MiB")


def bench_generate(scale: float) -> dict:
    """Cold vs warm-cache generation speed + bit-identity."""
    device = get_device("A100")
    cpm = max(6, int(round(8 * scale)))
    pairs = max(7, int(round(7 * scale)))
    kw = dict(configs_per_model=cpm, seed=23)
    models = list(_GEN_MODELS)

    ref = generate_dataset(models, [device], **kw)
    ref_fp = _fingerprint(ref)

    # The baseline side of the gate is the *no-feature* path: the
    # structure-keyed SPD memo is one of the caches under test (it speeds
    # up even a single cold run — config variants share topology), so
    # baseline measurements run with it bypassed and cleared.
    def _cold_generate(**kwargs):
        clear_spd_memo()
        with spd_memo_disabled():
            return generate_dataset(models, [device], **kwargs)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as td:
        cold = _cold_generate(cache_dir=td, **kw)
        warm = generate_dataset(models, [device], cache_dir=td, **kw)
        # Both sides take a fraction of a second, the length of a
        # transient host slowdown, so the headline ratio is paired.
        serial_s, warm_s = paired_medians(
            lambda: _cold_generate(**kw),
            lambda: generate_dataset(models, [device], cache_dir=td, **kw),
            pairs)
        identical = _fingerprint(cold) == ref_fp \
            and _fingerprint(warm) == ref_fp

    return {
        "models": models, "configs_per_model": cpm, "pairs": pairs,
        "serial_cold_s": serial_s, "warm_cache_s": warm_s,
        # The headline gate: a warm content-addressed cache vs the
        # baseline serial cold path.
        "feature_vs_serial_speedup": serial_s / warm_s,
        "bit_identical": identical,
    }


def generate_line(g: dict) -> str:
    return (f"serial {g['serial_cold_s']:.2f}s | warm cache "
            f"{g['warm_cache_s']:.2f}s "
            f"({g['feature_vs_serial_speedup']:.1f}x vs serial) | "
            f"bit-identical: {g['bit_identical']}")
