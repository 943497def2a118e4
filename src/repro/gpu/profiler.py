"""Simulated kernel profiler — the Nsight Compute / NVML substitute.

Given a computation graph and a device, :func:`profile_graph` lowers every
operator to kernels, computes each kernel's *achieved occupancy* (occupancy
calculator + wave/tail model) and *duration* (roofline: compute-bound vs
memory-bound, derated by occupancy), and aggregates:

* ``occupancy`` — duration-weighted mean of per-kernel achieved occupancy,
  exactly the ground-truth label definition in Section III-A / Fig. 2;
* ``nvml_utilization`` — fraction of wall time with at least one kernel
  resident; inter-kernel gaps come from framework dispatch and driver
  launch overheads, so long-kernel workloads saturate this metric early
  (the Fig. 2 phenomenon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..graph import ComputationGraph, DTYPE_BYTES
from ..obs import get_logger
from ..obs.metrics import counter, histogram
from ..obs.tracing import span
from .device import DeviceSpec
from .kernels import KernelLaunch, lower_node
from .occupancy import achieved_occupancy

_log = get_logger("gpu.profiler")

__all__ = ["KernelRecord", "ProfileResult", "profile_graph",
           "estimate_memory_bytes", "check_memory_or_raise",
           "OutOfMemoryError", "SIMULATOR_VERSION"]

#: version stamp of the simulator's cost model.  Part of every
#: :mod:`repro.perf.cache` key — bump it whenever the occupancy, duration,
#: memory, or lowering math changes, so stale cached profiles can never be
#: served for a different simulator.
SIMULATOR_VERSION = 1

#: CPU-side framework overhead per operator dispatch (seconds).  PyTorch
#: eager-mode op dispatch costs on the order of 5-20 us.
FRAMEWORK_DISPATCH_S = 1.2e-5

#: floor on kernel duration (device-side launch latency)
MIN_KERNEL_S = 1.5e-6


class OutOfMemoryError(RuntimeError):
    """Raised when a model configuration does not fit in device memory."""


class KernelRecord(NamedTuple):
    """One profiled kernel (aggregated over its ``count`` repeats).

    Immutable like a frozen dataclass, at a quarter of its construction
    cost: a profile holds hundreds of records, and a profile-cache hit
    rebuilds every one.
    """

    name: str
    node_id: int
    duration_s: float
    occupancy: float
    theoretical_occupancy: float
    limiter: str
    flops: float
    bytes_moved: float
    count: int


@dataclass
class ProfileResult:
    """Profile of one model execution on one device."""

    model_name: str
    device_name: str
    records: list[KernelRecord] = field(default_factory=list)
    #: total GPU-busy time of one inference iteration (seconds)
    busy_time_s: float = 0.0
    #: wall time including framework dispatch gaps (seconds)
    wall_time_s: float = 0.0

    @property
    def num_kernels(self) -> int:
        return sum(r.count for r in self.records)

    def aggregate_occupancy(self, aggr: str = "mean") -> float:
        """Aggregate per-kernel occupancy (paper Section III-A).

        ``mean`` is duration-weighted (the paper's representative choice);
        ``max`` / ``min`` are the alternatives mentioned in the general
        formulation.
        """
        if not self.records:
            return 0.0
        occ = np.array([r.occupancy for r in self.records])
        if aggr == "mean":
            w = np.array([r.duration_s for r in self.records])
            return float(np.average(occ, weights=w))
        if aggr == "max":
            return float(occ.max())
        if aggr == "min":
            return float(occ.min())
        if aggr == "unweighted_mean":
            return float(occ.mean())
        raise ValueError(f"unknown aggregation {aggr!r}")

    @property
    def occupancy(self) -> float:
        """Duration-weighted mean achieved occupancy in [0, 1]."""
        return self.aggregate_occupancy("mean")

    @property
    def nvml_utilization(self) -> float:
        """Fraction of wall time with >= 1 kernel executing, in [0, 1]."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return min(1.0, self.busy_time_s / self.wall_time_s)

    def per_node_occupancy(self) -> dict[int, dict[str, float]]:
        """Duration-weighted occupancy and GPU time per graph node.

        The node-level attribution behind the graph-level label ("fused
        data contains complete dependency relations among occupancy data
        and the computation graph", Fig. 3 stage 2).  Nodes lowered to no
        kernels (views, inputs) are absent.
        """
        acc: dict[int, list[float]] = {}
        for rec in self.records:
            dur, wocc = acc.setdefault(rec.node_id, [0.0, 0.0])
            acc[rec.node_id][0] = dur + rec.duration_s
            acc[rec.node_id][1] = wocc + rec.occupancy * rec.duration_s
        return {nid: {"duration_s": dur, "occupancy": wocc / dur}
                for nid, (dur, wocc) in acc.items()}

    def per_kernel_breakdown(self) -> dict[str, dict[str, float]]:
        """Duration share and weighted occupancy per kernel family.

        Groups records by kernel name; each entry reports the fraction of
        GPU-busy time the family consumes and its duration-weighted
        occupancy — the "who drags occupancy down" view.
        """
        groups: dict[str, list[KernelRecord]] = {}
        for rec in self.records:
            groups.setdefault(rec.name, []).append(rec)
        total = sum(r.duration_s for r in self.records) or 1.0
        out: dict[str, dict[str, float]] = {}
        for name, recs in groups.items():
            dur = sum(r.duration_s for r in recs)
            occ = sum(r.occupancy * r.duration_s for r in recs) / dur
            out[name] = {
                "duration_share": dur / total,
                "occupancy": occ,
                "launches": float(sum(r.count for r in recs)),
            }
        return dict(sorted(out.items(),
                           key=lambda kv: -kv[1]["duration_share"]))


def _kernel_duration(kern: KernelLaunch, occ: float,
                     device: DeviceSpec) -> float:
    """Roofline duration of a single launch of ``kern``.

    Compute efficiency scales with achieved occupancy up to a saturation
    point (~50% occupancy hides most latency); memory efficiency similarly.
    """
    occ_factor = 0.35 + 0.65 * min(1.0, occ / 0.5)
    t_compute = kern.flops / (device.peak_flops *
                              kern.compute_efficiency * occ_factor)
    bw_factor = 0.55 + 0.40 * min(1.0, occ / 0.4)
    t_memory = kern.bytes_moved / (device.peak_bandwidth * bw_factor)
    return max(t_compute, t_memory, MIN_KERNEL_S)


def profile_graph(graph: ComputationGraph, device: DeviceSpec,
                  check_memory: bool = True,
                  preflight: bool = True) -> ProfileResult:
    """Simulate one inference iteration of ``graph`` on ``device``.

    Raises :class:`OutOfMemoryError` when the working set exceeds device
    memory (mirrors the paper's dataset generation, which scaled batch
    sizes up until OOM).

    With ``preflight`` (the default) the structural
    lint passes run first and a :class:`~repro.lint.LintError` is raised
    on any ERROR diagnostic — a malformed graph is rejected statically
    instead of producing corrupt kernel records; rejections are counted
    as ``lint_preflight_failures_total{gate="profiler"}``.
    """
    with span("profile_graph", model=graph.name, device=device.name):
        if preflight:
            # Imported lazily: repro.lint pulls in the feature encoder,
            # which imports this package.
            from ..lint import preflight_graph
            with span("lint_preflight", model=graph.name):
                preflight_graph(graph, device=device)
        if check_memory:
            check_memory_or_raise(graph, device)

        # Hoisted metric handles: one registry lookup per profile call,
        # not per kernel (and shared no-ops when observability is off).
        kernels_total = counter("profiler_kernels_total")
        dur_hist = histogram("profiler_kernel_duration_us")
        occ_hist = histogram("profiler_kernel_occupancy")

        result = ProfileResult(model_name=graph.name,
                               device_name=device.name)
        busy = 0.0
        dispatches = 0
        for nid in graph.topological_order():
            node = graph.nodes[nid]
            with span("lower_node", node_id=nid, op=node.op_type):
                kernels = lower_node(node, device)
                if kernels:
                    dispatches += 1
                for kern in kernels:
                    occ, theo = achieved_occupancy(
                        device, kern.grid_blocks, kern.threads_per_block,
                        kern.regs_per_thread, kern.smem_per_block)
                    dur = _kernel_duration(kern, occ, device) * kern.count
                    busy += dur
                    kernels_total.inc(kern.count)
                    dur_hist.observe(dur / kern.count * 1e6)
                    occ_hist.observe(occ)
                    result.records.append(KernelRecord(
                        name=kern.name, node_id=nid, duration_s=dur,
                        occupancy=occ,
                        theoretical_occupancy=theo.occupancy,
                        limiter=theo.limiter, flops=kern.flops * kern.count,
                        bytes_moved=kern.bytes_moved * kern.count,
                        count=kern.count))

        launches = sum(r.count for r in result.records)
        gaps = dispatches * FRAMEWORK_DISPATCH_S \
            + launches * device.launch_overhead_s
        result.busy_time_s = busy
        result.wall_time_s = busy + gaps
        return result


def check_memory_or_raise(graph: ComputationGraph,
                          device: DeviceSpec) -> None:
    """Raise :class:`OutOfMemoryError` (naming the peak-liveness node)
    when ``graph`` does not fit on ``device``; count the rejection."""
    from .memory import peak_memory_breakdown
    breakdown = peak_memory_breakdown(graph)
    required = breakdown["total_bytes"]
    if required <= device.mem_capacity_bytes:
        return
    counter("profiler_oom_total").inc()
    culprit = ""
    if breakdown["peak_node_id"] is not None:
        culprit = (f" (peak at node {breakdown['peak_node_id']} "
                   f"{breakdown['peak_op_type']})")
    _log.warning("out of memory", extra={
        "model": graph.name, "device": device.name,
        "required_gib": round(required / 2**30, 2),
        "peak_node_id": breakdown["peak_node_id"]})
    raise OutOfMemoryError(
        f"{graph.name}: needs {required / 2**30:.1f} GiB, device "
        f"{device.name} has {device.mem_capacity_gb} GiB{culprit}")


def estimate_memory_bytes(graph: ComputationGraph) -> int:
    """Peak device-memory estimate for inference (the OOM filter).

    Delegates to the liveness-based model in :mod:`repro.gpu.memory`:
    weights + peak simultaneously-live activations + the largest kernel
    workspace + allocator overhead.
    """
    from .memory import peak_memory_bytes
    return peak_memory_bytes(graph)
