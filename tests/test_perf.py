"""repro.perf: batched execution, serial generation, profile cache.

The contracts under test are the PR's acceptance gates:

* the masked dense batch (``collate`` + ``forward_batch``) reproduces
  each member's batch-of-one forward *and* backward within 1e-6 across
  the full model zoo (see also ``tests/test_batch_invariance.py``);
* ``generate_dataset`` returns the datasets pinned by their digests and
  evaluates each distinct configuration that acceptance reaches once;
* the content-addressed cache never changes results — hits rebuild the
  exact dataset, corrupt entries are detected, treated as misses, and
  regenerated rather than served.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro import obs
from repro.core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
from repro.data import SEEN_MODELS, generate_dataset
from repro.data import dataset as dataset_mod
from repro.data.dataset import config_domain
from repro.features import encode_graph
from repro.features.encode import (feature_blocks, node_feature_dim,
                                   edge_feature_dim)
from repro.gpu import get_device, profile_graph
from repro.models import ModelConfig, build_model, list_models
from repro.perf import GraphBatch, ProfileCache, cache_key, collate, \
    ensure_spd
from repro.bench.perf import _fingerprint
from repro.tensor import Tensor

A100 = get_device("A100")
P40 = get_device("P40")


def _counter_values(registry) -> dict[str, float]:
    return {m.name: m.value for m in registry if m.kind == "counter"}


def _model(hidden: int = 32, seed: int = 7) -> DNNOccu:
    return DNNOccu(DNNOccuConfig(hidden=hidden, num_heads=4), seed=seed)


def _zoo_features() -> list:
    feats = []
    for name in list_models():
        g = build_model(name, ModelConfig(batch_size=16))
        feats.append(encode_graph(g, A100))
    # batching pads to the largest member; sort by size so chunks stay
    # representative of both homogeneous and mixed batches
    feats.sort(key=lambda f: f.num_nodes)
    return feats


# --------------------------------------------------------------------- #
# batched forward/backward equivalence
# --------------------------------------------------------------------- #

class TestBatchedEquivalence:
    def test_forward_matches_per_graph_across_zoo(self):
        feats = _zoo_features()
        model = _model()
        per = np.array([model.predict(f) for f in feats])
        batched = np.concatenate([
            model.predict_batch(feats[i:i + 8])
            for i in range(0, len(feats), 8)])
        np.testing.assert_allclose(batched, per, atol=1e-6, rtol=0)

    def test_gradients_match_per_graph(self):
        names = ("lenet", "alexnet", "rnn", "lstm", "vgg-11", "resnet-18",
                 "bert", "vit-t")
        feats = [encode_graph(build_model(n, ModelConfig()), A100)
                 for n in names]
        ys = np.linspace(0.2, 0.8, len(feats))
        model = _model()

        model.zero_grad()
        loss = None
        for f, y in zip(feats, ys):
            err = (model.forward(f) - y) ** 2
            loss = err if loss is None else loss + err
        (loss * (1.0 / len(feats))).backward()
        ref = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        preds = model.forward_batch(collate(feats))
        (((preds - Tensor(ys)) ** 2).sum()
         * (1.0 / len(feats))).backward()
        for p, g in zip(model.parameters(), ref):
            np.testing.assert_allclose(p.grad, g, atol=1e-6, rtol=0)

    def test_trainer_batched_fit_matches_loss_curve(self):
        ds = generate_dataset(("lenet", "rnn"), [A100],
                              configs_per_model=3, seed=3)
        histories = []
        for batched in (False, True):
            trainer = Trainer(_model(), TrainConfig(
                epochs=3, batch_size=4, lr=1e-3, seed=9,
                preflight=False))
            histories.append(trainer.fit(ds, batched=batched))
        np.testing.assert_allclose(histories[1].train_loss,
                                   histories[0].train_loss, atol=1e-6)

    def test_trainer_batched_requires_forward_batch(self):
        class NoBatch:
            def parameters(self):
                return []

        trainer = Trainer.__new__(Trainer)
        trainer.model = NoBatch()
        with pytest.raises(TypeError, match="forward_batch"):
            Trainer.fit(trainer, [object()], batched=True)


# --------------------------------------------------------------------- #
# collate / GraphBatch
# --------------------------------------------------------------------- #

class TestCollate:
    def test_batch_shapes_and_mask(self):
        feats = [encode_graph(build_model(n, ModelConfig()), A100)
                 for n in ("lenet", "alexnet")]
        batch = collate(feats)
        assert isinstance(batch, GraphBatch)
        n_max = max(f.num_nodes for f in feats)
        assert batch.num_graphs == 2 and batch.n_max == n_max
        assert batch.node_mask.shape == (2, n_max)
        assert batch.node_mask.sum() == sum(f.num_nodes for f in feats)
        assert batch.spd.shape == (2, n_max, n_max)
        assert 0.0 <= batch.pad_waste < 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            collate([])

    def test_pad_waste_histogram_observed(self):
        feats = [encode_graph(build_model(n, ModelConfig()), A100)
                 for n in ("lenet", "vit-t")]
        with obs.observed() as (_, registry):
            collate(feats)
        [hist] = [m for m in registry
                  if m.name == "perf_batch_pad_waste"]
        assert hist.count == 1
        # a 14-node graph padded to 347 wastes nearly half the batch
        assert hist.sum > 0.4


# --------------------------------------------------------------------- #
# serial generation
# --------------------------------------------------------------------- #

#: ``_fingerprint`` digests of datasets that training runs, the paper
#: tables and the benchmark build on; a change to generation that moves
#: one changes every result downstream of it.
TRAIN_EPOCH_DIGESTS = {
    1: "819eec7b1c2ae99f44b6d888aaa72d8bfb38282e43624fbf8292f93ecd6e9047",
    2: "702a9aa533765453aea9ffb334fb5fc2ee02b1d3218f7e803d941c3d99f68903",
}
SEEN_P40_6_DIGEST = \
    "c8bf67c53332cf2dcc1185fb197c3ed2a470aa3ad7e12bd3e3046d5f8ddfdd7d"
GENERATE_SUITE_DIGEST = \
    "3288f52fed9a40ad810f36d77c32dc8f1d0282f525e89784c5430d00ea5a6b59"


class TestSerialGeneration:
    @pytest.mark.parametrize("seed", sorted(TRAIN_EPOCH_DIGESTS))
    def test_train_epoch_dataset_pinned(self, seed):
        # perfbench's train-epoch dataset
        ds = generate_dataset(SEEN_MODELS, [P40], configs_per_model=4,
                              seed=seed)
        assert _fingerprint(ds) == TRAIN_EPOCH_DIGESTS[seed]

    def test_one_evaluation_per_reached_config(self, monkeypatch):
        # At this size some draws do not fit on P40 and some repeat an
        # earlier draw; neither may cost a second evaluation.
        calls = []
        real = dataset_mod.profile_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dataset_mod, "profile_graph", counting)
        ds = generate_dataset(SEEN_MODELS, [P40], configs_per_model=6,
                              seed=0)
        assert len(ds) == 60
        assert len(calls) == 60
        assert _fingerprint(ds) == SEEN_P40_6_DIGEST

    def test_generate_suite_dataset_pinned_cold_and_warm(self, tmp_path):
        # the perf.generate bench set, through one cache directory
        def gen():
            return generate_dataset(("resnet-50", "vit-s"), [A100],
                                    configs_per_model=8, seed=23,
                                    cache_dir=str(tmp_path))

        assert _fingerprint(gen()) == GENERATE_SUITE_DIGEST
        with obs.observed() as (_, registry):
            warm = gen()
        assert _counter_values(registry).get("perf_cache_misses_total",
                                             0) == 0
        assert _fingerprint(warm) == GENERATE_SUITE_DIGEST


# --------------------------------------------------------------------- #
# content-addressed profile cache
# --------------------------------------------------------------------- #

class TestProfileCache:
    MODELS = ("lenet", "rnn")

    def _gen(self, **kw):
        return generate_dataset(self.MODELS, [A100],
                                configs_per_model=3, seed=17, **kw)

    def test_hits_reproduce_dataset_exactly(self, tmp_path):
        ref = _fingerprint(self._gen())
        with obs.observed() as (_, registry):
            cold = self._gen(cache_dir=str(tmp_path))
        cold_counts = _counter_values(registry)
        assert cold_counts.get("perf_cache_misses_total", 0) > 0
        assert cold_counts.get("perf_cache_hits_total", 0) == 0

        with obs.observed() as (_, registry):
            warm = self._gen(cache_dir=str(tmp_path))
        warm_counts = _counter_values(registry)
        assert warm_counts.get("perf_cache_hits_total", 0) > 0
        assert warm_counts.get("perf_cache_misses_total", 0) == 0

        assert _fingerprint(cold) == ref
        assert _fingerprint(warm) == ref

    def test_roundtrip_entry(self, tmp_path):
        graph = build_model("lenet", ModelConfig())
        cache = ProfileCache(str(tmp_path))
        profile = profile_graph(graph, A100)
        features = encode_graph(graph, A100)
        cache.put(graph, A100, profile, features)
        entry = cache.get(graph, A100)
        assert entry is not None and not entry.oom
        assert entry.profile.aggregate_occupancy("mean") == \
            pytest.approx(profile.aggregate_occupancy("mean"))
        np.testing.assert_array_equal(entry.features.node_features,
                                      features.node_features)
        # the persisted SPD matrix rides along, already decoded
        np.testing.assert_array_equal(
            getattr(entry.features, "_spd_cache"), ensure_spd(features))

    def test_oom_entries_cached(self, tmp_path):
        graph = build_model("lenet", ModelConfig())
        cache = ProfileCache(str(tmp_path))
        cache.put(graph, A100, None, None)
        entry = cache.get(graph, A100)
        assert entry is not None and entry.oom
        assert entry.profile is None and entry.features is None

    def test_key_separates_graph_device_and_simulator(self, monkeypatch):
        g1 = build_model("lenet", ModelConfig())
        g2 = build_model("lenet", ModelConfig(batch_size=64))
        p40 = get_device("P40")
        assert cache_key(g1, A100) != cache_key(g2, A100)
        assert cache_key(g1, A100) != cache_key(g1, p40)
        before = cache_key(g1, A100)
        import repro.perf.cache as cache_mod
        monkeypatch.setattr(cache_mod, "SIMULATOR_VERSION", 999)
        assert cache_key(g1, A100) != before

    def test_key_hashes_the_dataclass_reprs(self):
        # The key streams each node's and edge's repr text; entries
        # written under it must stay addressable.
        import hashlib

        from repro.gpu import SIMULATOR_VERSION
        graph = build_model("vit-t", ModelConfig())
        h = hashlib.sha256(graph.name.encode())
        for item in [*graph.nodes.values(), *graph.edges]:
            h.update(repr(item).encode())
        h.update(b"\x00" + A100.name.encode() + b"\x00"
                 + str(SIMULATOR_VERSION).encode())
        assert cache_key(graph, A100) == h.hexdigest()

    def test_corrupt_entry_is_miss_and_regenerated(self, tmp_path):
        graph = build_model("lenet", ModelConfig())
        cache = ProfileCache(str(tmp_path))
        cache.put(graph, A100, profile_graph(graph, A100),
                  encode_graph(graph, A100))
        [path] = glob.glob(os.path.join(str(tmp_path), "*.npz"))
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))

        with obs.observed() as (_, registry):
            assert cache.get(graph, A100) is None
        counts = _counter_values(registry)
        assert counts.get("perf_cache_corrupt_total") == 1
        assert counts.get("perf_cache_misses_total") == 1

        # a miss regenerates and overwrites; the entry is healthy again
        cache.put(graph, A100, profile_graph(graph, A100),
                  encode_graph(graph, A100))
        assert cache.get(graph, A100) is not None

    def test_corrupt_cache_still_yields_identical_dataset(self, tmp_path):
        ref = _fingerprint(self._gen())
        self._gen(cache_dir=str(tmp_path))
        for path in glob.glob(os.path.join(str(tmp_path), "*.npz")):
            with open(path, "r+b") as fh:
                fh.truncate(max(1, os.path.getsize(path) // 2))
        assert _fingerprint(self._gen(cache_dir=str(tmp_path))) == ref

    def test_truncated_to_zero_entry_is_miss(self, tmp_path):
        graph = build_model("lenet", ModelConfig())
        cache = ProfileCache(str(tmp_path))
        cache.put(graph, A100, None, None)
        [path] = glob.glob(os.path.join(str(tmp_path), "*.npz"))
        open(path, "wb").close()
        assert cache.get(graph, A100) is None
        assert len(cache) == 1  # the bad file is still there, unserved


# --------------------------------------------------------------------- #
# memoized feature metadata
# --------------------------------------------------------------------- #

class TestMemoizedMetadata:
    def test_dims_are_cached(self):
        assert node_feature_dim() == node_feature_dim()
        assert node_feature_dim.cache_info().hits >= 1
        assert edge_feature_dim() == edge_feature_dim()

    def test_feature_blocks_returns_fresh_copies(self):
        blocks = feature_blocks()
        blocks["hacked"] = slice(0, 1)
        assert "hacked" not in feature_blocks()

    def test_config_domain_returns_fresh_copies(self):
        dom = config_domain("lenet")
        dom["batch_size"] = ()
        assert config_domain("lenet")["batch_size"] != ()
        # per-family domains stay distinct
        assert config_domain("rnn") is not config_domain("rnn")
