"""FLOPs and workspace formulas per operator type.

The Conv2d formula matches Section III-C verbatim:

    FLOPs(Conv2d) = 2 * K * C * R * S * N * P * Q

GEMM-style operators use ``2 * M * N * K`` (times batch); elementwise and
normalization operators are counted per element.  Recurrent operators use
the input/output-size formulation the paper describes for RNN-based models.
"""

from __future__ import annotations

from typing import Any, Callable

from .node import tensor_numel

__all__ = ["op_flops", "op_temp_bytes", "OP_TYPES", "op_type_index",
           "flops_rule_ops"]


def _conv2d(attrs: dict[str, Any], inputs, output) -> int:
    n, _, p, q = output
    k = attrs["out_channels"]
    c = attrs["in_channels"] // attrs.get("groups", 1)
    r, s = attrs["kernel_size"]
    return 2 * k * c * r * s * n * p * q


def _matmul(attrs: dict[str, Any], inputs, output) -> int:
    # inputs: (..., M, K) @ (..., K, N) -> output (..., M, N)
    k = attrs.get("reduce_dim")
    if k is None:
        k = inputs[0][-1]
    batch = tensor_numel(output[:-2]) if len(output) > 2 else 1
    m, n = output[-2], output[-1]
    return 2 * batch * m * n * k


def _gemm(attrs: dict[str, Any], inputs, output) -> int:
    # Linear layer: (B..., K) -> (B..., N)
    k = attrs.get("in_features", inputs[0][-1] if inputs else 1)
    n = attrs.get("out_features", output[-1])
    batch = tensor_numel(output[:-1])
    return 2 * batch * n * k


def _elementwise(mult: float) -> Callable:
    def fn(attrs, inputs, output):
        return int(mult * tensor_numel(output))
    return fn


def _pool(attrs: dict[str, Any], inputs, output) -> int:
    r, s = attrs.get("kernel_size", (1, 1))
    return tensor_numel(output) * r * s


def _global_pool(attrs, inputs, output) -> int:
    return tensor_numel(inputs[0]) if inputs else tensor_numel(output)


def _batchnorm(attrs, inputs, output) -> int:
    # Inference: scale + shift per element.
    return 2 * tensor_numel(output)


def _layernorm(attrs, inputs, output) -> int:
    # mean, variance, normalize, affine: ~8 ops/element.
    return 8 * tensor_numel(output)


def _softmax(attrs, inputs, output) -> int:
    # max-subtract, exp, sum, divide: ~5 ops/element.
    return 5 * tensor_numel(output)


def _lstm(attrs: dict[str, Any], inputs, output) -> int:
    """Full unrolled LSTM cost from I/O sizes (paper Section III-C)."""
    batch = attrs["batch"]
    seq = attrs["seq_len"]
    hidden = attrs["hidden_size"]
    inp = attrs["input_size"]
    layers = attrs.get("num_layers", 1)
    per_step = 8 * hidden * (inp + hidden) + 24 * hidden
    per_step_rest = 8 * hidden * (hidden + hidden) + 24 * hidden
    total = per_step + max(0, layers - 1) * per_step_rest
    return total * batch * seq


def _rnn(attrs: dict[str, Any], inputs, output) -> int:
    batch = attrs["batch"]
    seq = attrs["seq_len"]
    hidden = attrs["hidden_size"]
    inp = attrs["input_size"]
    layers = attrs.get("num_layers", 1)
    per_step = 2 * hidden * (inp + hidden) + 2 * hidden
    per_step_rest = 2 * hidden * (hidden + hidden) + 2 * hidden
    total = per_step + max(0, layers - 1) * per_step_rest
    return total * batch * seq


def _embedding(attrs, inputs, output) -> int:
    # Pure gather: negligible FLOPs, but nonzero to keep features informative.
    return tensor_numel(output)


def _zero(attrs, inputs, output) -> int:
    return 0


#: FLOPs formula registry; every model-zoo operator must appear here.
_FLOPS: dict[str, Callable] = {
    "Input": _zero,
    "Conv2d": _conv2d,
    "DepthwiseConv2d": _conv2d,
    "MatMul": _matmul,
    "Gemm": _gemm,
    "BatchNorm2d": _batchnorm,
    "LayerNorm": _layernorm,
    "GroupNorm": _layernorm,
    "ReLU": _elementwise(1),
    "ReLU6": _elementwise(1),
    "GELU": _elementwise(8),
    "SiLU": _elementwise(4),
    "Sigmoid": _elementwise(4),
    "Tanh": _elementwise(4),
    "Softmax": _softmax,
    "MaxPool2d": _pool,
    "AvgPool2d": _pool,
    "AdaptiveAvgPool2d": _global_pool,
    "GlobalAvgPool": _global_pool,
    "Add": _elementwise(1),
    "Mul": _elementwise(1),
    "Div": _elementwise(1),
    "Concat": _zero,
    "Split": _zero,
    "Slice": _zero,
    "Flatten": _zero,
    "Reshape": _zero,
    "Transpose": _zero,
    "Identity": _zero,
    "Embedding": _embedding,
    "LSTM": _lstm,
    "RNN": _rnn,
    "Scale": _elementwise(1),
    "Erf": _elementwise(8),
    "Pad": _zero,
    "Shift": _zero,
    "PatchMerge": _elementwise(1),
    "Pow": _elementwise(1),
    "Sqrt": _elementwise(1),
    "ReduceMean": _elementwise(1),
}

#: canonical operator ordering for one-hot encoding (sorted for stability)
OP_TYPES: tuple[str, ...] = tuple(sorted(_FLOPS))

_OP_INDEX = {op: i for i, op in enumerate(OP_TYPES)}


def op_type_index(op_type: str) -> int:
    """Index of ``op_type`` in the canonical one-hot ordering."""
    return _OP_INDEX[op_type]


def flops_rule_ops() -> frozenset[str]:
    """Every op type with a registered FLOPs formula."""
    return frozenset(_FLOPS)


def op_flops(op_type: str, attrs: dict[str, Any],
             input_shapes: list[tuple[int, ...]],
             output_shape: tuple[int, ...]) -> int:
    """FLOPs of one operator invocation. Raises for unknown operators."""
    try:
        fn = _FLOPS[op_type]
    except KeyError:
        raise KeyError(f"no FLOPs formula registered for operator {op_type!r}")
    return int(fn(attrs, input_shapes, output_shape))


def op_temp_bytes(op_type: str, attrs: dict[str, Any],
                  input_shapes: list[tuple[int, ...]],
                  output_shape: tuple[int, ...]) -> int:
    """Workspace ("temporary tensor") bytes used by the operator.

    Conv2d is modelled as implicit-GEMM with an im2col-sized workspace;
    Softmax/LayerNorm keep per-row statistics; MatMul needs no extra space.
    """
    if op_type in ("Conv2d", "DepthwiseConv2d"):
        n, _, p, q = output_shape
        c = attrs["in_channels"] // attrs.get("groups", 1)
        r, s = attrs["kernel_size"]
        return 4 * n * c * r * s * p * q
    if op_type in ("Softmax", "LayerNorm", "GroupNorm", "ReduceMean"):
        # One float of statistics per normalization row.
        return 4 * max(1, tensor_numel(output_shape) // max(1, output_shape[-1]))
    if op_type in ("LSTM", "RNN"):
        return 4 * 4 * attrs["hidden_size"] * attrs["batch"]
    return 0
