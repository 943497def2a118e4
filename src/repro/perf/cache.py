"""Content-addressed on-disk cache for profiled + encoded graphs.

Dataset generation spends nearly all of its time in ``profile_graph`` and
``encode_graph`` for (graph, device) pairs it has already seen in earlier
runs.  This cache keys each pair by

    sha256(graph JSON || device name || simulator version)

so a cached entry can *never* be served for a different graph, device, or
cost model (bump :data:`repro.gpu.profiler.SIMULATOR_VERSION` whenever the
simulator math changes).  Entries reuse the checksummed
:mod:`repro.resilience.checkpoint` container: writes are atomic, and a
corrupted entry fails its digest check on load and is treated as a miss —
regenerated and rewritten, never served.

An entry stores the kernel-level ``(occupancy, duration)`` records (enough
to rebuild any label aggregation exactly), the encoded feature arrays, and
the SPD matrix (so the Graphormer never recomputes shortest paths for a
cached graph).  OOM rejections are cached too — re-discovering "does not
fit" is as expensive as profiling.

Hits and misses are counted as ``perf_cache_hits_total`` /
``perf_cache_misses_total`` in :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from ..features import GraphFeatures
from ..gpu import DeviceSpec, ProfileResult, SIMULATOR_VERSION
from ..gpu.profiler import KernelRecord
from ..graph import ComputationGraph, DataEdge, OpNode
from ..obs import get_logger
from ..obs.metrics import counter
from ..resilience.checkpoint import (CheckpointError, load_checkpoint,
                                     save_checkpoint)

__all__ = ["ProfileCache", "CacheEntry", "PredictionCache", "cache_key",
           "graph_key", "structure_key"]

_CACHE_VERSION = 1

_log = get_logger("perf.cache")


# The dataclass-generated ``__repr__`` bodies, without the recursion
# guard dataclasses wraps them in: a node or edge never contains itself,
# and the guard's bookkeeping costs more than the repr.  The text, and so
# every key, is unchanged.
_node_repr = getattr(OpNode.__repr__, "__wrapped__", OpNode.__repr__)
_edge_repr = getattr(DataEdge.__repr__, "__wrapped__", DataEdge.__repr__)


def _update_graph(h: "hashlib._Hash", graph: ComputationGraph,
                  device: DeviceSpec) -> None:
    """Stream one (graph, device) pair's content into a running hash.

    The graph hash streams the dataclass ``repr`` of every node and edge
    (all fields, deterministic for a deterministically built graph) —
    the same content ``graph.to_json()`` would serialize, at roughly half
    the cost, which matters because the key is computed on every cache
    lookup in the generation and serving hot paths.
    """
    h.update(graph.name.encode("utf-8"))
    for node in graph.nodes.values():
        h.update(_node_repr(node).encode("utf-8"))
    for edge in graph.edges:
        h.update(_edge_repr(edge).encode("utf-8"))
    h.update(b"\x00")
    h.update(device.name.encode("utf-8"))


def cache_key(graph: ComputationGraph, device: DeviceSpec) -> str:
    """Content address of one (graph, device, simulator) combination."""
    h = hashlib.sha256()
    _update_graph(h, graph, device)
    h.update(b"\x00")
    h.update(str(SIMULATOR_VERSION).encode("ascii"))
    return h.hexdigest()


def graph_key(graph: ComputationGraph, device: DeviceSpec) -> str:
    """Content address of one (graph, device) pair, simulator-agnostic.

    The serving layer keys its request cache on this: a prediction depends
    only on the model weights and the encoded inputs, never on the cost
    simulator, so bumping ``SIMULATOR_VERSION`` must not evict warm
    prediction entries the way it (correctly) evicts profile entries.
    """
    h = hashlib.sha256()
    _update_graph(h, graph, device)
    return h.hexdigest()


def structure_key(num_nodes: int, edge_index: np.ndarray) -> str:
    """Content address of a graph *topology* (node count + edge list).

    Shortest-path distances depend only on structure, so the SPD memo in
    :func:`repro.perf.batching.ensure_spd` shares one entry across every
    feature encoding of the same topology — different devices, batch
    sizes that do not change the graph, or freshly re-encoded
    ``GraphFeatures`` objects.
    """
    h = hashlib.sha256()
    h.update(str(int(num_nodes)).encode("ascii"))
    h.update(b"\x00")
    h.update(np.ascontiguousarray(edge_index, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass
class CacheEntry:
    """One cached (graph, device) evaluation.

    ``oom=True`` entries carry no arrays — the cached fact is the
    rejection itself.  ``profile`` is a skeletal :class:`ProfileResult`
    holding exactly the kernel ``(occupancy, duration)`` records, so
    ``aggregate_occupancy`` / ``nvml_utilization`` run the *same* code a
    fresh profile would — a hit can never change the label.
    """

    key: str
    oom: bool
    profile: ProfileResult | None
    features: GraphFeatures | None


class ProfileCache:
    """Directory of content-addressed profile/encoding entries."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    # -- read ---------------------------------------------------------- #
    def get(self, graph: ComputationGraph,
            device: DeviceSpec) -> CacheEntry | None:
        """Return the cached entry, or ``None`` (counted as a miss).

        A corrupt or unreadable entry is a miss: the digest check in the
        checkpoint container rejects it, the caller regenerates, and
        :meth:`put` overwrites the bad file.
        """
        key = cache_key(graph, device)
        path = self._path(key)
        if not os.path.exists(path):
            counter("perf_cache_misses_total").inc()
            return None
        try:
            arrays, meta = load_checkpoint(path, component="perf-cache")
            entry = self._decode(key, arrays, meta)
        except CheckpointError as exc:
            counter("perf_cache_misses_total").inc()
            counter("perf_cache_corrupt_total").inc()
            _log.warning("corrupt cache entry; regenerating", extra={
                "key": key[:12], "error": str(exc)})
            return None
        counter("perf_cache_hits_total").inc()
        return entry

    def _decode(self, key: str, arrays: dict[str, np.ndarray],
                meta: dict) -> CacheEntry:
        if meta.get("kind") != "perf-cache" \
                or meta.get("version") != _CACHE_VERSION \
                or meta.get("key") != key:
            raise CheckpointError(
                f"cache entry {key[:12]}... has foreign metadata "
                f"(kind={meta.get('kind')!r})")
        if meta["oom"]:
            return CacheEntry(key=key, oom=True, profile=None,
                              features=None)
        profile = ProfileResult(
            model_name=meta["model_name"], device_name=meta["device_name"],
            busy_time_s=meta["busy_time_s"],
            wall_time_s=meta["wall_time_s"])
        # tolist() yields the same Python floats as float() of each numpy
        # scalar, without a scalar object per element.
        profile.records = [
            KernelRecord("", -1, dur, occ, 0.0, "", 0.0, 0.0, 1)
            for occ, dur in zip(arrays["rec_occupancy"].tolist(),
                                arrays["rec_duration_s"].tolist())]
        features = GraphFeatures(
            node_features=arrays["node_features"],
            edge_features=arrays["edge_features"],
            edge_index=arrays["edge_index"].astype(np.intp),
            model_name=meta["model_name"],
            device_name=meta["device_name"])
        # The persisted SPD matrix rides along on the features object,
        # matching the perf.batching.ensure_spd convention.
        object.__setattr__(features, "_spd_cache",
                           arrays["spd"].astype(np.intp))
        return CacheEntry(key=key, oom=False, profile=profile,
                          features=features)

    # -- write --------------------------------------------------------- #
    def put(self, graph: ComputationGraph, device: DeviceSpec,
            profile: ProfileResult | None,
            features: GraphFeatures | None,
            spd: np.ndarray | None = None) -> str:
        """Persist one evaluation; ``profile=None`` records an OOM."""
        key = cache_key(graph, device)
        oom = profile is None
        meta = {"kind": "perf-cache", "version": _CACHE_VERSION,
                "key": key, "oom": oom,
                "model_name": graph.name, "device_name": device.name,
                "simulator_version": SIMULATOR_VERSION}
        arrays: dict[str, np.ndarray] = {}
        if not oom:
            if features is None:
                raise ValueError("non-OOM entries need encoded features")
            meta["busy_time_s"] = profile.busy_time_s
            meta["wall_time_s"] = profile.wall_time_s
            arrays["rec_occupancy"] = np.array(
                [r.occupancy for r in profile.records])
            arrays["rec_duration_s"] = np.array(
                [r.duration_s for r in profile.records])
            arrays["node_features"] = features.node_features
            arrays["edge_features"] = features.edge_features
            arrays["edge_index"] = features.edge_index
            if spd is None:
                from .batching import ensure_spd
                spd = ensure_spd(features)
            # SPD buckets are tiny ints (<= MAX_SPD + 1); persisting them
            # at intp width would make the n x n matrix dominate the entry
            # and its digest check.  _decode widens back to intp.
            arrays["spd"] = np.asarray(spd).astype(np.uint8)
        save_checkpoint(self._path(key), arrays, meta,
                        component="perf-cache")
        return key

    def __len__(self) -> int:
        return sum(1 for f in os.listdir(self.root) if f.endswith(".npz"))


class PredictionCache:
    """Shared content-addressed on-disk tier for served *predictions*.

    The fleet's per-worker LRUs (:class:`repro.serve.ModelSession`) are
    private to one worker process; this directory is the tier below
    them, shared by every worker — a prediction any worker has paid a
    forward for is a disk hit for all of them, and it survives worker
    restarts.  Keys are :func:`graph_key` (graph + device, simulator-
    agnostic, same as the LRUs above), so an entry can never be served
    for a different graph or device.

    Entries reuse the checksummed :mod:`repro.resilience.checkpoint`
    container: writes are atomic (``tempfile`` + ``os.replace``, safe
    under concurrent multi-process writers), and a corrupt or foreign
    entry fails its digest/metadata check and reads as a miss.
    """

    _KIND = "fleet-pred"

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"pred_{key}.npz")

    def get(self, key: str) -> float | None:
        """The cached prediction, or ``None``: corrupt and non-finite
        entries miss, so no reader of the tier can serve a NaN."""
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            arrays, meta = load_checkpoint(path, component="fleet-cache")
            if meta.get("kind") != self._KIND or meta.get("key") != key:
                raise CheckpointError(
                    f"prediction entry {key[:12]}... has foreign "
                    f"metadata (kind={meta.get('kind')!r})")
            value = float(arrays["value"][0])
            return value if math.isfinite(value) else None
        except (CheckpointError, KeyError, IndexError, OSError) as exc:
            _log.warning("corrupt prediction-cache entry; ignoring",
                         extra={"key": key[:12],
                                "error": type(exc).__name__})
            return None

    def put(self, key: str, value: float) -> None:
        save_checkpoint(self._path(key),
                        {"value": np.array([float(value)])},
                        {"kind": self._KIND, "key": key},
                        component="fleet-cache")

    def __len__(self) -> int:
        return sum(1 for f in os.listdir(self.root)
                   if f.startswith("pred_") and f.endswith(".npz"))
