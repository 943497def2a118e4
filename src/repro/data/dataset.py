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
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..features import GraphFeatures, encode_graph
from ..gpu import DeviceSpec, OutOfMemoryError, get_device, profile_graph
from ..models import MODEL_FAMILY, ModelConfig, build_model
from ..obs.metrics import gauge

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


def sample_config(model_name: str, rng: np.random.Generator,
                  base: ModelConfig | None = None) -> ModelConfig:
    """Draw one configuration from the model's Table II domain."""
    domain = config_domain(model_name)
    cfg = base or ModelConfig()
    draws = {key: int(rng.choice(vals)) for key, vals in domain.items()}
    return cfg.replace(**draws)


def _attempt_rng(seed: int, mi: int, di: int, k: int) -> np.random.Generator:
    """Independent RNG substream for attempt ``k`` of pair ``(mi, di)``.

    ``SeedSequence`` spawn keys give every (model, device, attempt) work
    item its own statistically independent stream that depends only on
    the item's identity — never on which worker evaluates it or in what
    order — which is what makes parallel generation bit-identical to
    serial for any worker count.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(mi, di, k)))


def _evaluate_attempt(item: tuple) -> dict:
    """Profile + encode one candidate configuration (pool worker body).

    Pure function of its inputs: the simulator and encoder are
    deterministic, so the result is identical wherever it runs.
    """
    name, cfg, device_name = item
    t0 = time.perf_counter()
    device = get_device(device_name)
    graph = build_model(name, cfg)
    try:
        prof = profile_graph(graph, device)
    except OutOfMemoryError:
        return {"oom": True, "pid": os.getpid(),
                "elapsed": time.perf_counter() - t0}
    features = encode_graph(graph, device)
    # Imported lazily: repro.perf reaches repro.core, which imports
    # this module at package-import time.
    from ..perf.batching import ensure_spd
    spd = ensure_spd(features)
    return {"oom": False, "profile": prof, "features": features,
            "spd": spd, "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges, "pid": os.getpid(),
            "elapsed": time.perf_counter() - t0}


class _LazyPool:
    """Multiprocessing pool that forks only on first real dispatch.

    Cache-warm generations (and single-item waves) never fan out, so
    they must not pay pool start-up: on a cold cache the fork cost
    amortizes over profiling work, on a warm one it would dominate.
    """

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._pool = None

    def map(self, fn, items: list) -> list:
        if self.n_workers <= 1 or len(items) < 2:
            return [fn(it) for it in items]
        if self._pool is None:
            import multiprocessing as mp
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = mp.get_context()
            self._pool = ctx.Pool(processes=self.n_workers)
        return self._pool.map(fn, items)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


def generate_dataset(model_names: Sequence[str], devices: Sequence[DeviceSpec],
                     configs_per_model: int, seed: int = 0,
                     base: ModelConfig | None = None,
                     max_attempts_factor: int = 4,
                     aggregation: str = "mean",
                     workers: int | None = None,
                     cache_dir: str | None = None) -> Dataset:
    """Profile ``configs_per_model`` sampled configs of each model per device.

    OOM configurations are skipped and redrawn (up to
    ``max_attempts_factor * configs_per_model`` attempts), mirroring the
    paper's "run until OOM" boundary.  ``aggregation`` selects the kernel
    aggregation for the label (Section III-A: mean / max / min; the paper
    studies mean).

    ``workers=N`` (N > 1) fans candidate evaluations out over a
    ``multiprocessing`` pool.  Every attempt draws its configuration from
    a per-item ``SeedSequence`` substream and acceptance is replayed
    serially in attempt order, so the returned dataset is **bit-identical
    for any worker count** (including serial) at the same ``seed``.

    ``cache_dir`` enables the content-addressed profile/encoding cache
    (:class:`repro.perf.cache.ProfileCache`): repeated generations reuse
    on-disk results keyed by graph hash + device + simulator version.
    Cache hits return the exact arrays a fresh evaluation would produce,
    so caching never changes the dataset either.
    """
    cache = None
    if cache_dir is not None:
        from ..perf.cache import ProfileCache
        cache = ProfileCache(cache_dir)
    n_workers = int(workers or 1)
    pool = _LazyPool(n_workers)
    busy_s: dict[int, float] = {}
    try:
        ds = Dataset()
        for mi, name in enumerate(model_names):
            for di, device in enumerate(devices):
                _generate_pair(ds, mi, name, di, device, configs_per_model,
                               seed, base, max_attempts_factor,
                               aggregation, cache, pool, n_workers, busy_s)
    finally:
        pool.close()
    for pid, seconds in sorted(busy_s.items()):
        gauge("perf_worker_busy_seconds", worker=str(pid)).set(seconds)
    return ds


def _generate_pair(ds: Dataset, mi: int, name: str, di: int,
                   device: DeviceSpec, configs_per_model: int, seed: int,
                   base: ModelConfig | None, max_attempts_factor: int,
                   aggregation: str, cache, pool, n_workers: int,
                   busy_s: dict[int, float]) -> None:
    """Generate the samples of one (model, device) pair into ``ds``.

    Evaluation (profile + encode, parallelizable, order-free) is
    separated from acceptance (dedup -> OOM skip -> accept until quota,
    replayed serially in attempt order), so results cannot depend on
    worker count or scheduling.
    """
    limit = max_attempts_factor * configs_per_model
    cfgs = [sample_config(name, _attempt_rng(seed, mi, di, k), base)
            for k in range(limit)]
    results: dict[int, dict] = {}
    # Graphs built in the parent for cache-key lookups, kept so a miss
    # does not have to rebuild the same graph for the cache.put.
    graphs: dict[int, object] = {}
    evaluated_upto = 0
    # Wave size: enough to keep every worker busy while usually covering
    # the whole quota in one round trip.
    wave = max(configs_per_model, n_workers)

    def ensure_evaluated(k: int) -> None:
        nonlocal evaluated_upto
        if k < evaluated_upto:
            return
        hi = min(limit, max(k + 1, evaluated_upto + wave))
        pending: list[int] = []
        first_of: dict[tuple, int] = {}
        for j in range(evaluated_upto, hi):
            cfg = cfgs[j]
            ckey = (cfg.batch_size, cfg.in_channels, cfg.seq_len)
            if ckey in first_of:
                # Same config, same deterministic result: evaluate once.
                results[j] = results.get(first_of[ckey], {"alias": first_of[ckey]})
                continue
            first_of[ckey] = j
            if cache is not None:
                graphs[j] = graph = build_model(name, cfg)
                entry = cache.get(graph, device)
                if entry is not None:
                    if entry.oom:
                        results[j] = {"oom": True}
                    else:
                        results[j] = {
                            "oom": False, "profile": entry.profile,
                            "features": entry.features,
                            "num_nodes": entry.features.num_nodes,
                            "num_edges": entry.features.num_edges}
                    continue
            pending.append(j)
        if pending:
            items = [(name, cfgs[j], device.name) for j in pending]
            outs = pool.map(_evaluate_attempt, items)
            for j, out in zip(pending, outs):
                busy_s[out["pid"]] = busy_s.get(out["pid"], 0.0) \
                    + out["elapsed"]
                results[j] = out
                if cache is not None:
                    cache.put(graphs[j], device,
                              None if out["oom"] else out["profile"],
                              None if out["oom"] else out["features"],
                              spd=out.get("spd"))
        # Resolve aliases recorded before their target was evaluated.
        for j in range(evaluated_upto, hi):
            if "alias" in results[j]:
                results[j] = results[results[j]["alias"]]
        evaluated_upto = hi

    accepted = 0
    seen_cfgs: set[tuple] = set()
    for k in range(limit):
        if accepted >= configs_per_model:
            break
        ensure_evaluated(k)
        cfg = cfgs[k]
        key = (cfg.batch_size, cfg.in_channels, cfg.seq_len)
        if key in seen_cfgs:
            continue
        out = results[k]
        if out["oom"]:
            continue
        seen_cfgs.add(key)
        accepted += 1
        prof = out["profile"]
        ds.samples.append(GraphSample(
            features=out["features"],
            occupancy=prof.aggregate_occupancy(aggregation),
            nvml_utilization=prof.nvml_utilization,
            wall_time_s=prof.wall_time_s,
            model_name=name.lower(),
            device_name=device.name,
            config=cfg,
            num_nodes=out["num_nodes"],
            num_edges=out["num_edges"],
        ))
