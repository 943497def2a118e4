"""Training-iteration profiling (extension beyond the paper's inference
scope; the Table I edge-type feature reserves "Backward" for exactly this).

A training step executes the forward kernels, then — in reverse topological
order — each operator's backward kernels, then the optimizer update.  The
backward lowering follows the standard decomposition:

* GEMM-like operators run a *data-gradient* kernel (same problem shape as
  the forward) and a *weight-gradient* kernel (a GEMM reducing over the
  batch/pixel dimension) — roughly 2x the forward cost;
* elementwise / normalization / pooling operators run one backward kernel
  of forward-like cost;
* embeddings run an atomics-based scatter-add (memory-bound, poorly
  coalesced);
* the optimizer runs one vectorized update kernel per parameterized node.

The result is a regular :class:`ProfileResult`, so training occupancy can
be aggregated, featurized, and predicted exactly like inference occupancy.
"""

from __future__ import annotations

from ..graph import ComputationGraph, DTYPE_BYTES
from .device import DeviceSpec
from .kernels import KernelLaunch, lower_node, _elementwise_kernel
from .memory import weight_bytes
from .occupancy import achieved_occupancy
from .profiler import (FRAMEWORK_DISPATCH_S, KernelRecord, ProfileResult,
                       _kernel_duration)

__all__ = ["profile_training_graph", "lower_backward"]

#: operators owning trainable parameters (get a weight-gradient kernel
#: and an optimizer update)
_PARAMETERIZED = frozenset({"Conv2d", "DepthwiseConv2d", "Gemm", "LSTM",
                            "RNN", "Embedding", "BatchNorm2d", "LayerNorm",
                            "GroupNorm"})

_NO_BACKWARD = frozenset({"Input", "Flatten", "Reshape", "Identity"})


def lower_backward(node, device: DeviceSpec) -> list[KernelLaunch]:
    """Backward kernels of one operator."""
    op = node.op_type
    if op in _NO_BACKWARD:
        return []

    if op == "Embedding":
        # Gradient scatter with atomics: heavily memory-bound.
        return [_elementwise_kernel(
            "embedding_dense_backward_atomics", node.output_numel,
            2.0 * node.output_bytes, float(node.flops), regs=24)]

    forward = lower_node(node, device)
    out: list[KernelLaunch] = []
    for kern in forward:
        # Data-gradient kernel: same shape class as the forward kernel.
        out.append(KernelLaunch(
            name=f"{kern.name}_dgrad", grid_blocks=kern.grid_blocks,
            threads_per_block=kern.threads_per_block,
            regs_per_thread=kern.regs_per_thread,
            smem_per_block=kern.smem_per_block, flops=kern.flops,
            bytes_moved=kern.bytes_moved, count=kern.count,
            compute_efficiency=kern.compute_efficiency))
        if op in _PARAMETERIZED:
            # Weight-gradient kernel: reduction over the batch dimension;
            # typically slightly fewer resident blocks (extra accumulator
            # registers) at the same tile shape.
            out.append(KernelLaunch(
                name=f"{kern.name}_wgrad", grid_blocks=kern.grid_blocks,
                threads_per_block=kern.threads_per_block,
                regs_per_thread=min(255, kern.regs_per_thread + 8),
                smem_per_block=kern.smem_per_block, flops=kern.flops,
                bytes_moved=kern.bytes_moved, count=kern.count,
                compute_efficiency=kern.compute_efficiency * 0.9))
    return out


def profile_training_graph(graph: ComputationGraph, device: DeviceSpec,
                           check_memory: bool = True) -> ProfileResult:
    """Simulate one *training* iteration (forward + backward + update).

    Training memory is approximated as twice the inference working set
    (activations are retained for the backward pass, and gradients mirror
    the weights).
    """
    if check_memory:
        from ..obs.metrics import counter
        from .memory import peak_memory_breakdown
        from .profiler import OutOfMemoryError
        breakdown = peak_memory_breakdown(graph)
        required = 2 * breakdown["total_bytes"]
        if required > device.mem_capacity_bytes:
            counter("profiler_oom_total").inc()
            culprit = ""
            if breakdown["peak_node_id"] is not None:
                culprit = (f" (peak at node {breakdown['peak_node_id']} "
                           f"{breakdown['peak_op_type']})")
            raise OutOfMemoryError(
                f"{graph.name}: training needs ~{required / 2**30:.1f} GiB,"
                f" device {device.name} has {device.mem_capacity_gb} GiB"
                f"{culprit}")

    result = ProfileResult(model_name=f"{graph.name}_train",
                           device_name=device.name)
    busy = 0.0
    dispatches = 0
    order = graph.topological_order()

    def run(nid: int, kernels: list[KernelLaunch]) -> None:
        nonlocal busy, dispatches
        if kernels:
            dispatches += 1
        for kern in kernels:
            occ, theo = achieved_occupancy(
                device, kern.grid_blocks, kern.threads_per_block,
                kern.regs_per_thread, kern.smem_per_block)
            dur = _kernel_duration(kern, occ, device) * kern.count
            busy += dur
            result.records.append(KernelRecord(
                name=kern.name, node_id=nid, duration_s=dur,
                occupancy=occ, theoretical_occupancy=theo.occupancy,
                limiter=theo.limiter, flops=kern.flops * kern.count,
                bytes_moved=kern.bytes_moved * kern.count,
                count=kern.count))

    for nid in order:                       # forward
        run(nid, lower_node(graph.nodes[nid], device))
    for nid in reversed(order):             # backward
        run(nid, lower_backward(graph.nodes[nid], device))

    # Optimizer: one fused vectorized update over all parameters.
    n_weights = weight_bytes(graph) // DTYPE_BYTES
    if n_weights:
        run(order[-1], [_elementwise_kernel(
            "fused_optimizer_step", int(n_weights),
            3.0 * n_weights * DTYPE_BYTES, 4.0 * n_weights, regs=24)])

    launches = sum(r.count for r in result.records)
    gaps = dispatches * FRAMEWORK_DISPATCH_S \
        + launches * device.launch_overhead_s
    result.busy_time_s = busy
    result.wall_time_s = busy + gaps
    return result
