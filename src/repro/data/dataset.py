"""Dataset generation: Table II hyperparameter domains and profiling labels.

Reproduces the paper's dataset protocol (Section IV-A): for every model a
stochastic strategy samples hyperparameter configurations from the family's
domain, each configuration is profiled (here: by the GPU simulator instead
of Nsight Compute), configurations that exceed device memory are discarded
(the paper ran "until OOM"), and the duration-weighted mean occupancy
becomes the regression label.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..features import GraphFeatures, encode_graph
from ..gpu import DeviceSpec, OutOfMemoryError, profile_graph
from ..models import MODEL_FAMILY, ModelConfig, build_model

__all__ = ["GraphSample", "Dataset", "sample_config", "generate_dataset",
           "SEEN_MODELS", "UNSEEN_MODELS", "config_domain"]

#: the paper's training ("seen") models — Section V's 80/20 split set
SEEN_MODELS = ("vit-t", "lstm", "rnn", "resnet-34", "resnet-18", "vgg-16",
               "vgg-13", "vgg-11", "alexnet", "lenet")

#: models whose configurations never appear in training (Section V)
UNSEEN_MODELS = ("vit-s", "bert", "convnext-b", "resnet-50")


@dataclass
class GraphSample:
    """One labelled example: encoded graph + measured occupancy."""

    features: GraphFeatures
    occupancy: float
    nvml_utilization: float
    wall_time_s: float
    model_name: str
    device_name: str
    config: ModelConfig
    num_nodes: int
    num_edges: int


@dataclass
class Dataset:
    """A list of samples with family/split bookkeeping."""

    samples: list[GraphSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i: int) -> GraphSample:
        return self.samples[i]

    def filter_models(self, names: Iterable[str]) -> "Dataset":
        keys = {n.lower() for n in names}
        return Dataset([s for s in self.samples
                        if s.model_name.lower() in keys])

    def filter_devices(self, names: Iterable[str]) -> "Dataset":
        keys = {n.lower() for n in names}
        return Dataset([s for s in self.samples
                        if s.device_name.lower() in keys])

    def split(self, train_frac: float,
              rng: np.random.Generator) -> tuple["Dataset", "Dataset"]:
        """Random split (the paper's 80/20 within seen models)."""
        idx = rng.permutation(len(self.samples))
        cut = int(round(train_frac * len(idx)))
        return (Dataset([self.samples[i] for i in idx[:cut]]),
                Dataset([self.samples[i] for i in idx[cut:]]))

    def labels(self) -> np.ndarray:
        return np.array([s.occupancy for s in self.samples])


@functools.lru_cache(maxsize=None)
def _domain_items(family: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Memoized immutable form of :func:`config_domain` per family."""
    if family == "cnn":
        return (("batch_size", tuple(range(16, 129, 4))),
                ("in_channels", tuple(range(1, 11))))
    if family == "rnn":
        return (("batch_size", tuple(range(128, 513, 8))),
                ("seq_len", tuple(range(16, 129, 8))))
    return (("batch_size", tuple(range(16, 129, 4))),
            ("in_channels", tuple(range(1, 11))),
            ("seq_len", tuple(range(20, 513, 4))))


def config_domain(model_name: str) -> dict[str, tuple[int, ...]]:
    """Table II hyperparameter domain for a model's family.

    CNN-based: batch size 16..128 step 4, input channels 1..10.
    RNN-based: batch size 128..512 step 8, sequence length 16..128 step 8.
    Transformer-based: batch 16..128 step 4, channels 1..10, seq 20..512.

    Memoized per family (it used to be rebuilt on every config draw);
    callers get a fresh dict, so the cache cannot be mutated through a
    returned mapping.
    """
    return dict(_domain_items(MODEL_FAMILY[model_name.lower()]))


def sample_config(model_name: str, rng: np.random.Generator) -> ModelConfig:
    """Draw one configuration from the model's Table II domain."""
    draws = {key: int(rng.choice(vals))
             for key, vals in config_domain(model_name).items()}
    return ModelConfig().replace(**draws)


#: attempts per accepted sample before a pair gives up on its quota
MAX_ATTEMPTS_FACTOR = 4


def _attempt_rng(seed: int, mi: int, di: int, k: int) -> np.random.Generator:
    """Independent RNG substream for attempt ``k`` of pair ``(mi, di)``.

    ``SeedSequence`` spawn keys give every (model, device, attempt) its
    own statistically independent stream that depends only on the
    attempt's identity, so attempt ``k`` draws the same configuration
    however many attempts before it were skipped.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(mi, di, k)))


def _evaluate(name: str, cfg: ModelConfig, device: DeviceSpec, cache):
    """Profile + encode one configuration; ``None`` when it does not fit.

    With a ``cache`` the result is read from it when present and stored
    in it otherwise.  Hits return the exact arrays a fresh evaluation
    would produce, so caching never changes the dataset.
    """
    graph = build_model(name, cfg)
    if cache is not None:
        entry = cache.get(graph, device)
        if entry is not None:
            return None if entry.oom else (entry.profile, entry.features)
    try:
        prof = profile_graph(graph, device)
    except OutOfMemoryError:
        prof = features = spd = None
    else:
        features = encode_graph(graph, device)
        # Imported lazily: repro.perf reaches repro.core, which imports
        # this module at package-import time.
        from ..perf.batching import ensure_spd
        spd = ensure_spd(features)
    if cache is not None:
        cache.put(graph, device, prof, features, spd=spd)
    return None if prof is None else (prof, features)


def generate_dataset(model_names: Sequence[str], devices: Sequence[DeviceSpec],
                     configs_per_model: int, seed: int = 0,
                     cache_dir: str | None = None) -> Dataset:
    """Profile ``configs_per_model`` sampled configs of each model per device.

    Attempt ``k`` of each (model, device) pair draws its configuration
    from its own ``SeedSequence`` substream.  A configuration seen before
    is skipped; one that exceeds device memory is discarded, mirroring
    the paper's "run until OOM" boundary; every other one is accepted,
    labelled with its duration-weighted mean occupancy, until the quota
    is met or ``MAX_ATTEMPTS_FACTOR * configs_per_model`` attempts ran.

    ``cache_dir`` enables the content-addressed profile/encoding cache
    (:class:`repro.perf.cache.ProfileCache`): repeated generations reuse
    on-disk results keyed by graph hash + device + simulator version.
    """
    cache = None
    if cache_dir is not None:
        from ..perf.cache import ProfileCache
        cache = ProfileCache(cache_dir)
    ds = Dataset()
    for mi, name in enumerate(model_names):
        for di, device in enumerate(devices):
            accepted = 0
            # Every configuration reached so far was either accepted or
            # did not fit; a redraw of either would be skipped, so
            # neither is evaluated twice.
            seen: set[tuple] = set()
            for k in range(MAX_ATTEMPTS_FACTOR * configs_per_model):
                if accepted >= configs_per_model:
                    break
                cfg = sample_config(name, _attempt_rng(seed, mi, di, k))
                key = (cfg.batch_size, cfg.in_channels, cfg.seq_len)
                if key in seen:
                    continue
                seen.add(key)
                out = _evaluate(name, cfg, device, cache)
                if out is None:
                    continue
                prof, features = out
                accepted += 1
                ds.samples.append(GraphSample(
                    features=features,
                    occupancy=prof.occupancy,
                    nvml_utilization=prof.nvml_utilization,
                    wall_time_s=prof.wall_time_s,
                    model_name=name.lower(),
                    device_name=device.name,
                    config=cfg,
                    num_nodes=features.num_nodes,
                    num_edges=features.num_edges,
                ))
    return ds
