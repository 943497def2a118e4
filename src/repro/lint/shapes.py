"""Independent shape re-inference for the graph lint passes.

:mod:`repro.graph.builder` infers output shapes imperatively while a graph
is being *built*; once a graph exists (deserialized, transformed, fused,
or hand-constructed) nothing re-checks that the recorded
``OpNode.output_shape`` still follows from the inputs and attributes.
This module is that second, independent implementation: one rule per
operator type, written against the op's *definition* rather than the
builder's code, so drift between the two layers surfaces as a ``G005``
diagnostic instead of silently corrupting features.

A rule returns the expected output shape, ``None`` when the op's output
is not derivable (e.g. ``Input`` sources), or raises
:class:`ShapeRuleViolation` when the node's inputs/attributes are
internally inconsistent (which the shape pass also reports as ``G005``).
"""

from __future__ import annotations

from typing import Any, Callable

from ..graph import tensor_numel

__all__ = ["infer_output_shape", "ShapeRuleViolation", "SHAPE_RULES"]

Shape = tuple[int, ...]
Rule = Callable[[dict[str, Any], list[Shape]], "Shape | None"]


class ShapeRuleViolation(ValueError):
    """An operator's inputs/attributes are mutually inconsistent."""


def _need_inputs(op: str, inputs: list[Shape], n: int) -> None:
    if len(inputs) < n:
        raise ShapeRuleViolation(
            f"{op} expects at least {n} input(s), got {len(inputs)}")


def _conv_len(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeRuleViolation(
            f"non-positive spatial output (in={size}, k={kernel}, "
            f"s={stride}, p={padding})")
    return out


def _conv2d(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Conv2d", inputs, 1)
    if len(inputs[0]) != 4:
        raise ShapeRuleViolation(f"Conv2d input must be NCHW, "
                                 f"got {inputs[0]}")
    n, c, h, w = inputs[0]
    if c != attrs["in_channels"]:
        raise ShapeRuleViolation(
            f"in_channels attr {attrs['in_channels']} != input channels {c}")
    r, s = attrs["kernel_size"]
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    return (n, attrs["out_channels"], _conv_len(h, r, sh, ph),
            _conv_len(w, s, sw, pw))


def _pool2d(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Pool2d", inputs, 1)
    if len(inputs[0]) != 4:
        raise ShapeRuleViolation(f"pooling input must be NCHW, "
                                 f"got {inputs[0]}")
    n, c, h, w = inputs[0]
    r, s = attrs["kernel_size"]
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    return (n, c, _conv_len(h, r, sh, ph), _conv_len(w, s, sw, pw))


def _global_pool(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("GlobalAvgPool", inputs, 1)
    if len(inputs[0]) < 2:
        raise ShapeRuleViolation("global pooling needs an (N, C, ...) input")
    return (inputs[0][0], inputs[0][1], 1, 1)


def _adaptive_pool(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("AdaptiveAvgPool2d", inputs, 1)
    oh, ow = attrs["output_size"]
    return (inputs[0][0], inputs[0][1], oh, ow)


def _same_as_input(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("elementwise", inputs, 1)
    return inputs[0]


def _binary_elementwise(attrs: dict[str, Any],
                        inputs: list[Shape]) -> Shape:
    _need_inputs("binary elementwise", inputs, 2)
    if inputs[0] != inputs[1]:
        raise ShapeRuleViolation(
            f"operand shapes disagree: {inputs[0]} vs {inputs[1]}")
    return inputs[0]


def _gemm(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Gemm", inputs, 1)
    if inputs[0][-1] != attrs["in_features"]:
        raise ShapeRuleViolation(
            f"in_features attr {attrs['in_features']} != input dim "
            f"{inputs[0][-1]}")
    return inputs[0][:-1] + (attrs["out_features"],)


def _matmul(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("MatMul", inputs, 2)
    a, b = inputs[0], inputs[1]
    if len(a) < 2 or len(b) < 2:
        raise ShapeRuleViolation(f"MatMul operands must be >= 2-D: {a}, {b}")
    if a[-1] != b[-2]:
        raise ShapeRuleViolation(f"contraction mismatch {a} @ {b}")
    return a[:-2] + (a[-2], b[-1])


def _concat(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Concat", inputs, 1)
    rank = len(inputs[0])
    axis = attrs["axis"] % rank
    base = list(inputs[0])
    for shp in inputs[1:]:
        if len(shp) != rank:
            raise ShapeRuleViolation(f"rank mismatch in concat: {inputs}")
        for i in range(rank):
            if i != axis and shp[i] != base[i]:
                raise ShapeRuleViolation(
                    f"concat shapes disagree off-axis: {inputs}")
        base[axis] += shp[axis]
    return tuple(base)


def _flatten(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Flatten", inputs, 1)
    start = attrs["start_dim"]
    keep = inputs[0][:start]
    rest = 1
    for s in inputs[0][start:]:
        rest *= s
    return keep + (rest,)


def _numel_preserving(op: str) -> Rule:
    def rule(attrs: dict[str, Any], inputs: list[Shape]) -> None:
        _need_inputs(op, inputs, 1)
        return None  # recorded shape accepted; numel checked by the pass
    return rule


def _transpose(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Transpose", inputs, 1)
    axes = tuple(attrs["axes"])
    if sorted(axes) != list(range(len(inputs[0]))):
        raise ShapeRuleViolation(
            f"axes {axes} is not a permutation of rank {len(inputs[0])}")
    return tuple(inputs[0][a] for a in axes)


def _reduce_mean(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("ReduceMean", inputs, 1)
    shape = list(inputs[0])
    del shape[attrs["axis"] % len(shape)]
    return tuple(shape)


def _embedding(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Embedding", inputs, 1)
    return inputs[0] + (attrs["embed_dim"],)


def _recurrent(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("LSTM/RNN", inputs, 1)
    if len(inputs[0]) != 3:
        raise ShapeRuleViolation(
            f"recurrent input must be (batch, seq, features), "
            f"got {inputs[0]}")
    return (attrs["batch"], attrs["seq_len"], attrs["hidden_size"])


def _pad(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Pad", inputs, 1)
    if len(inputs[0]) != 4:
        raise ShapeRuleViolation(f"Pad input must be NCHW, got {inputs[0]}")
    n, c, h, w = inputs[0]
    ph, pw = attrs["padding"]
    return (n, c, h + 2 * ph, w + 2 * pw)


def _split(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("Split", inputs, 1)
    rank = len(inputs[0])
    axis = attrs["axis"] % rank
    sections = attrs["sections"]
    if inputs[0][axis] % sections != 0:
        raise ShapeRuleViolation(
            f"axis {axis} extent {inputs[0][axis]} not divisible into "
            f"{sections} sections")
    out = list(inputs[0])
    out[axis] //= sections
    return tuple(out)


def _patch_merge(attrs: dict[str, Any], inputs: list[Shape]) -> Shape:
    _need_inputs("PatchMerge", inputs, 1)
    if len(inputs[0]) != 3:
        raise ShapeRuleViolation(
            f"PatchMerge input must be (batch, tokens, channels), "
            f"got {inputs[0]}")
    n, l, c = inputs[0]
    if l % 4 != 0:
        raise ShapeRuleViolation(f"token count {l} not divisible by 4")
    return (n, l // 4, 4 * c)


def _input(attrs: dict[str, Any], inputs: list[Shape]) -> None:
    return None  # sources: the recorded shape is the ground truth


#: shape re-inference rule per operator type.  ``None``-returning rules
#: accept the recorded shape (subject to the weak numel checks below).
SHAPE_RULES: dict[str, Rule] = {
    "Input": _input,
    "Conv2d": _conv2d,
    "DepthwiseConv2d": _conv2d,
    "MaxPool2d": _pool2d,
    "AvgPool2d": _pool2d,
    "GlobalAvgPool": _global_pool,
    "AdaptiveAvgPool2d": _adaptive_pool,
    "BatchNorm2d": _same_as_input,
    "LayerNorm": _same_as_input,
    "GroupNorm": _same_as_input,
    "ReLU": _same_as_input,
    "ReLU6": _same_as_input,
    "GELU": _same_as_input,
    "SiLU": _same_as_input,
    "Sigmoid": _same_as_input,
    "Tanh": _same_as_input,
    "Erf": _same_as_input,
    "Softmax": _same_as_input,
    "Scale": _same_as_input,
    "Identity": _same_as_input,
    "Shift": _same_as_input,
    "Pow": _same_as_input,
    "Sqrt": _same_as_input,
    "Add": _binary_elementwise,
    "Mul": _binary_elementwise,
    "Div": _binary_elementwise,
    "Gemm": _gemm,
    "MatMul": _matmul,
    "Concat": _concat,
    "Flatten": _flatten,
    "Reshape": _numel_preserving("Reshape"),
    "Slice": _numel_preserving("Slice"),
    "Transpose": _transpose,
    "ReduceMean": _reduce_mean,
    "Embedding": _embedding,
    "LSTM": _recurrent,
    "RNN": _recurrent,
    "Pad": _pad,
    "Split": _split,
    "PatchMerge": _patch_merge,
}

#: operators whose recorded shape is only numel-constrained, not derivable
_NUMEL_EQ = frozenset({"Reshape"})
_NUMEL_LE = frozenset({"Slice"})


def infer_output_shape(op_type: str, attrs: dict[str, Any],
                       input_shapes: list[Shape],
                       recorded: Shape) -> "Shape | None":
    """Expected output shape of an operator, or ``None`` when underivable.

    Raises :class:`ShapeRuleViolation` for internally inconsistent nodes,
    including numel violations of the weakly-constrained view ops.
    KeyErrors (missing attributes) are the schema pass's business and are
    re-raised as violations so one malformed node cannot crash the pass.
    """
    rule = SHAPE_RULES.get(op_type)
    if rule is None:
        return None
    try:
        expected = rule(attrs, [tuple(s) for s in input_shapes])
    except KeyError as exc:
        raise ShapeRuleViolation(
            f"{op_type} is missing attribute {exc.args[0]!r} needed for "
            f"shape inference")
    if expected is None and input_shapes:
        in_numel = tensor_numel(input_shapes[0])
        out_numel = tensor_numel(recorded)
        if op_type in _NUMEL_EQ and out_numel != in_numel:
            raise ShapeRuleViolation(
                f"{op_type} changes element count "
                f"({in_numel} -> {out_numel})")
        if op_type in _NUMEL_LE and out_numel > in_numel:
            raise ShapeRuleViolation(
                f"{op_type} output has more elements than its input "
                f"({out_numel} > {in_numel})")
    return expected
