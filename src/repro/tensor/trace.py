"""Trace-and-replay compiled executor for the batched GNN forward.

Batched inference funnels into one hot path — ``DNNOccu.forward_batch``
— which pays Python :class:`Tensor` dispatch, fresh ndarray allocation,
and autograd bookkeeping for every op on every call, even under
``no_grad``.  This module removes all three for callers that replay one
batch shape many times (``predict_batch(traced=True)``; serving stays
eager, since its flushes rarely repeat a shape — docs/compile.md):

1. **Tracer** (:func:`trace_forward`): runs the eager forward once under
   ``no_grad`` with the ``Tensor`` ops interposed, and emits a linear
   :class:`OpTape` — one :class:`TapeOp` per executed op with its input
   slots, constant parameters, and output slot.  Operands are classified
   as *parameters* (bound by dotted ``named_parameters`` name, so
   ``load_state_dict`` is picked up), *inputs* (arrays derived from the
   :class:`~repro.perf.batching.GraphBatch` through a small named
   registry, re-derived on every replay), or *constants* (captured by
   value).  An operand that matches more than one input derivation is
   ambiguous and aborts the trace — the caller falls back to eager.
2. **Fusion** (:func:`fuse_tape`): a peephole pass collapsing
   ``matmul → add-bias [→ activation]`` into one fused ``linear`` kernel
   and single-use elementwise chains into one in-place ``ew_chain``
   kernel — the oneDNN post-op idiom, at tape granularity.
3. **Arena** (:func:`compile_tape`): a last-use liveness pass over the
   tape assigns every op output a preallocated buffer from a free list
   keyed by ``(shape, dtype)``; replay writes through ``out=`` into the
   arena, so a steady-state replay performs (almost) no allocation and
   builds no ``Tensor`` graph at all.

Compiled plans are keyed by :func:`batch_signature` — the structural
facts the tape depends on (graph count, pad width, packed node/edge
totals, feature widths, the edgeless branch bit, dtype) — in a bounded
LRU :class:`TraceCache` (default :data:`DEFAULT_CACHE_SIZE` signatures).
Every compile self-checks replay-vs-eager on the trace batch before the
plan is admitted.

Grad mode is a hard error, not a silent hazard: tracing and replay both
raise :class:`GradModeError` when ``is_grad_enabled()`` — training keeps
the eager tape, and a traced forward under grad would silently detach
it.  Any :class:`TraceError` during compile or replay makes callers fall
back to the eager batched forward.

See docs/compile.md for the tape format and the equivalence argument.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..lint.sanitizer import new_lock
from ..obs.metrics import counter, gauge
from .tensor import Tensor, _attention_probs, is_grad_enabled, no_grad

__all__ = [
    "TraceError", "TraceMissError", "GradModeError",
    "TapeOp", "OpTape", "CompiledPlan", "TraceCache", "TracedExecutor",
    "batch_signature", "trace_forward", "fuse_tape", "compile_tape",
    "DEFAULT_CACHE_SIZE",
]

#: default maximum number of shape signatures a TraceCache retains
DEFAULT_CACHE_SIZE = 64


class TraceError(RuntimeError):
    """Tracing or replay cannot proceed; callers fall back to eager."""


class TraceMissError(TraceError):
    """No compiled plan for this signature and tracing was not allowed."""


class GradModeError(RuntimeError):
    """Traced execution requested while ``is_grad_enabled()`` is true.

    Deliberately *not* a :class:`TraceError`: falling back to eager would
    mask a real bug (a training step routed through the inference-only
    executor), so this propagates to the caller instead.
    """


# --------------------------------------------------------------------- #
# Input derivations: named views of a GraphBatch that the eager forward
# consumes as raw ndarrays.  The forward creates these fresh per call
# (``edge_index[0]`` is a new view object every time), so the tracer
# matches them by content and the replay re-derives them per batch.
# --------------------------------------------------------------------- #
_INPUT_DERIVERS: tuple = (
    ("node_features", lambda b: b.node_features),
    ("edge_features", lambda b: b.edge_features),
    ("edge_index", lambda b: b.edge_index),
    ("edge_src", lambda b: b.edge_index[0]),
    ("edge_dst", lambda b: b.edge_index[1]),
    ("edgeless_mask", lambda b: b.edgeless_mask),
    ("edgeless_keep_inv", lambda b: 1.0 - b.edgeless_mask),
    ("pad_index", lambda b: b.pad_index),
    ("node_mask", lambda b: b.node_mask),
    ("key_bias", lambda b: b.key_bias),
    ("key_bias_heads",
     lambda b: b.key_bias.reshape(b.key_bias.shape[0], 1, 1,
                                  b.key_bias.shape[2])),
    ("spd", lambda b: b.spd),
)

_DERIVER_BY_NAME = dict(_INPUT_DERIVERS)


def batch_signature(batch) -> tuple:
    """The structural key a compiled tape is valid for.

    Two batches with equal signatures execute the identical op sequence:
    every shape in the forward is a function of these facts, and the
    three data-dependent branches (``e.shape[0] == 0`` in ANEE, the
    ``edgeless_mask.any()`` substitution and the padding branch taken
    when ``B * n_max != N``) are pinned by the edge count, the edgeless
    bit and the node counts.
    """
    nf, ef = batch.node_features, batch.edge_features
    return (int(batch.num_graphs), int(batch.n_max),
            int(nf.shape[0]), int(nf.shape[1]),
            int(ef.shape[0]), int(ef.shape[1]),
            bool(batch.edgeless_mask.any()), str(nf.dtype))


# --------------------------------------------------------------------- #
# Tape data model
# --------------------------------------------------------------------- #

#: slot kinds: how a slot's value materializes at replay time
_K_CONST, _K_PARAM, _K_INPUT, _K_OP = "const", "param", "input", "op"


@dataclass
class _Slot:
    kind: str
    #: constants: the captured value (ndarray or python scalar)
    value: "object" = None
    #: params/inputs: dotted parameter name / deriver name
    name: str = ""
    shape: "tuple | None" = None
    dtype: "str | None" = None


@dataclass
class TapeOp:
    """One executed op: ``out = op(*ins, **params)`` over slot indices."""

    op: str
    ins: tuple
    params: dict
    out: int
    shape: tuple
    dtype: str


@dataclass
class OpTape:
    """Linear record of one traced forward, over a shared slot table."""

    slots: "list[_Slot]"
    ops: "list[TapeOp]"
    out_slot: int
    fused_away: int = 0

    def op_names(self) -> list[str]:
        return [op.op for op in self.ops]


# --------------------------------------------------------------------- #
# Tracer: interposes Tensor ops and records the tape
# --------------------------------------------------------------------- #

#: Tensor attribute -> canonical op name.  ``__radd__``/``__rmul__`` are
#: separate class-dict entries aliasing the same functions — they must be
#: patched explicitly or reflected arithmetic escapes the trace.
_PATCHED_ATTRS: dict[str, str] = {
    "__add__": "add", "__radd__": "add", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__pow__": "pow", "__matmul__": "matmul",
    "exp": "exp", "log": "log", "tanh": "tanh", "sigmoid": "sigmoid",
    "relu": "relu", "leaky_relu": "leaky_relu", "abs": "abs",
    "clip": "clip", "sum": "sum", "max": "max",
    "softmax": "softmax", "log_softmax": "log_softmax",
    "reshape": "reshape", "transpose": "transpose",
    "__getitem__": "getitem",
    "concat": "concat", "stack": "stack", "scatter_add": "scatter_add",
    "attention": "attention",
}

_BINARY = frozenset({"add", "mul", "div", "matmul"})
_UNARY = frozenset({"neg", "exp", "log", "tanh", "sigmoid", "relu", "abs"})

_TRACER_TLS = threading.local()
_PATCH_LOCK = threading.Lock()
_PATCH_DEPTH = 0
_SAVED_ATTRS: dict[str, object] = {}


def _install_patches() -> None:
    global _PATCH_DEPTH
    with _PATCH_LOCK:
        if _PATCH_DEPTH == 0:
            for attr, canon in _PATCHED_ATTRS.items():
                _SAVED_ATTRS[attr] = Tensor.__dict__[attr]
                orig = getattr(Tensor, attr)
                wrapper = _make_wrapper(canon, orig)
                if isinstance(_SAVED_ATTRS[attr], staticmethod):
                    wrapper = staticmethod(wrapper)
                setattr(Tensor, attr, wrapper)
        _PATCH_DEPTH += 1


def _uninstall_patches() -> None:
    global _PATCH_DEPTH
    with _PATCH_LOCK:
        _PATCH_DEPTH -= 1
        if _PATCH_DEPTH == 0:
            for attr, saved in _SAVED_ATTRS.items():
                setattr(Tensor, attr, saved)
            _SAVED_ATTRS.clear()


def _make_wrapper(canon: str, orig):
    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        tracer = getattr(_TRACER_TLS, "active", None)
        if tracer is not None and isinstance(out, Tensor):
            tracer.record(canon, args, kwargs, out)
        return out
    return wrapper


class _patched_trace:
    """Install the op interposers and activate ``tracer`` on this thread.

    Patches are refcounted and process-wide, but recording is routed
    through a thread-local — eager forwards on other threads pass
    straight through the wrappers while a trace is in progress.
    """

    def __init__(self, tracer: "_Tracer"):
        self._tracer = tracer

    def __enter__(self) -> "_patched_trace":
        _install_patches()
        _TRACER_TLS.active = self._tracer
        return self

    def __exit__(self, *exc) -> None:
        _TRACER_TLS.active = None
        _uninstall_patches()


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class _Tracer:
    def __init__(self, inputs: list, param_names: dict):
        #: list of (deriver name, derived ndarray) for the trace batch
        self.inputs = inputs
        #: id(Parameter) -> dotted name
        self.param_names = param_names
        self.slots: list[_Slot] = []
        self.ops: list[TapeOp] = []
        self._slot_of: dict[int, int] = {}
        # Traced intermediates must stay alive for the duration of the
        # trace: _slot_of is keyed by id(), and a collected Tensor would
        # let a new object reuse the key.
        self._keepalive: list = []

    # -- slot management ------------------------------------------------ #
    def _new_slot(self, slot: _Slot) -> int:
        self.slots.append(slot)
        return len(self.slots) - 1

    def _slot_for_tensor(self, t: Tensor) -> int:
        idx = self._slot_of.get(id(t))
        if idx is not None:
            return idx
        name = self.param_names.get(id(t))
        if name is not None:
            idx = self._new_slot(_Slot(_K_PARAM, name=name,
                                       shape=t.data.shape,
                                       dtype=str(t.data.dtype)))
        else:
            idx = self._classify_array(t.data)
        self._slot_of[id(t)] = idx
        self._keepalive.append(t)
        return idx

    def _classify_array(self, arr: np.ndarray) -> int:
        exact = [nm for nm, a in self.inputs if a is arr]
        if len(exact) == 1:
            return self._input_slot(exact[0], arr)
        cands = [nm for nm, a in self.inputs
                 if a.shape == arr.shape and a.dtype == arr.dtype
                 and np.array_equal(a, arr)]
        if len(cands) == 1:
            return self._input_slot(cands[0], arr)
        if len(cands) > 1:
            raise TraceError(
                f"operand matches several batch inputs {cands}; "
                "cannot bind it unambiguously")
        return self._new_slot(_Slot(_K_CONST,
                                    value=np.ascontiguousarray(arr),
                                    shape=arr.shape, dtype=str(arr.dtype)))

    def _input_slot(self, name: str, arr: np.ndarray) -> int:
        for i, s in enumerate(self.slots):
            if s.kind == _K_INPUT and s.name == name:
                return i
        return self._new_slot(_Slot(_K_INPUT, name=name, shape=arr.shape,
                                    dtype=str(arr.dtype)))

    def _slot_any(self, x) -> int:
        if isinstance(x, Tensor):
            return self._slot_for_tensor(x)
        if isinstance(x, np.ndarray):
            return self._classify_array(x)
        if isinstance(x, (int, float, np.integer, np.floating, bool,
                          np.bool_)):
            return self._new_slot(_Slot(_K_CONST, value=float(x),
                                        shape=(), dtype="float64"))
        raise TraceError(f"unsupported operand type {type(x).__name__}")

    def _emit(self, canon: str, ins: tuple, params: dict,
              out: Tensor) -> None:
        idx = self._new_slot(_Slot(_K_OP, shape=out.data.shape,
                                   dtype=str(out.data.dtype)))
        self._slot_of[id(out)] = idx
        self._keepalive.append(out)
        self.ops.append(TapeOp(op=canon, ins=ins, params=params, out=idx,
                               shape=out.data.shape,
                               dtype=str(out.data.dtype)))

    def slot_of(self, t: Tensor) -> "int | None":
        return self._slot_of.get(id(t))

    # -- recording ------------------------------------------------------ #
    def record(self, canon: str, args: tuple, kwargs: dict,
               out: Tensor) -> None:
        if canon in _BINARY:
            ins = (self._slot_any(args[0]), self._slot_any(args[1]))
            params: dict = {}
        elif canon in _UNARY:
            ins = (self._slot_any(args[0]),)
            params = {}
        elif canon == "pow":
            ins = (self._slot_any(args[0]),)
            params = {"exponent": float(args[1])}
        elif canon == "leaky_relu":
            ins = (self._slot_any(args[0]),)
            params = {"negative_slope":
                      float(_arg(args, kwargs, 1, "negative_slope", 0.01))}
        elif canon == "clip":
            ins = (self._slot_any(args[0]),)
            params = {"lo": _arg(args, kwargs, 1, "lo", None),
                      "hi": _arg(args, kwargs, 2, "hi", None)}
        elif canon in ("sum", "max"):
            ins = (self._slot_any(args[0]),)
            params = {"axis": _arg(args, kwargs, 1, "axis", None),
                      "keepdims":
                      bool(_arg(args, kwargs, 2, "keepdims", False))}
        elif canon in ("softmax", "log_softmax"):
            ins = (self._slot_any(args[0]),)
            params = {"axis": int(_arg(args, kwargs, 1, "axis", -1))}
        elif canon == "reshape":
            ins = (self._slot_any(args[0]),)
            params = {"shape": tuple(out.data.shape)}
        elif canon == "transpose":
            raw = args[1:]
            if not raw:
                axes = None
            elif len(raw) == 1 and isinstance(raw[0], (tuple, list)):
                axes = tuple(int(a) for a in raw[0])
            else:
                axes = tuple(int(a) for a in raw)
            ins = (self._slot_any(args[0]),)
            params = {"axes": axes}
        elif canon == "getitem":
            self._record_getitem(args[0], args[1], out)
            return
        elif canon in ("concat", "stack"):
            tensors = args[0]
            ins = tuple(self._slot_any(t) for t in tensors)
            params = {"axis": int(_arg(args, kwargs, 1, "axis", 0))}
        elif canon == "scatter_add":
            values = self._slot_any(args[0])
            index = self._slot_any(np.asarray(args[1], dtype=np.intp))
            ins = (values, index)
            params = {"num_rows":
                      int(_arg(args, kwargs, 2, "num_rows", None))}
        elif canon == "attention":
            # q, k, v and an optional bias slot; the decoder's ndarray
            # mask binds to the ``key_bias_heads`` input.
            bias = _arg(args, kwargs, 3, "bias", None)
            ins = tuple(self._slot_any(t) for t in args[:3])
            if bias is not None:
                ins += (self._slot_any(bias),)
            params = {"scale": float(_arg(args, kwargs, 4, "scale", 1.0))}
        else:  # pragma: no cover - table and dispatch kept in sync
            raise TraceError(f"unknown traced op {canon!r}")
        self._emit(canon, ins, params, out)

    def _record_getitem(self, base, idx, out: Tensor) -> None:
        src = self._slot_any(base)
        if isinstance(idx, np.ndarray) and np.issubdtype(idx.dtype,
                                                         np.integer):
            # Fancy row gather: replayed as np.take(..., axis=0, out=).
            self._emit("take", (src, self._slot_any(idx)), {}, out)
            return
        if self._basic_index(idx):
            self._emit("index", (src,), {"idx": idx}, out)
            return
        raise TraceError(f"unsupported getitem index {type(idx).__name__}")

    @staticmethod
    def _basic_index(idx) -> bool:
        basic = (int, np.integer, slice, type(Ellipsis), type(None))
        if isinstance(idx, basic):
            return True
        return isinstance(idx, tuple) and all(
            isinstance(part, basic) for part in idx)


def trace_forward(model, batch) -> "tuple[OpTape, np.ndarray]":
    """Run ``model.forward_batch(batch)`` once, recording the op tape.

    Returns ``(tape, reference_output)``; the reference is the eager
    result used for the compile-time self-check.  Raises
    :class:`GradModeError` under grad and :class:`TraceError` when an
    operand cannot be bound (callers fall back to eager).
    """
    if is_grad_enabled():
        raise GradModeError(
            "trace_forward requires no_grad: tracing under grad would "
            "record a detached tape and silently break training")
    inputs = [(name, np.asarray(fn(batch)))
              for name, fn in _INPUT_DERIVERS]
    param_names = {id(p): name for name, p in model.named_parameters()}
    tracer = _Tracer(inputs, param_names)
    with no_grad(), _patched_trace(tracer):
        out = model.forward_batch(batch)
    out_slot = tracer.slot_of(out)
    if out_slot is None:
        raise TraceError("forward output was not produced by a traced op")
    ref = np.array(out.data, dtype=np.float64)
    return OpTape(slots=tracer.slots, ops=tracer.ops,
                  out_slot=out_slot), ref


# --------------------------------------------------------------------- #
# Peephole fusion
# --------------------------------------------------------------------- #

#: elementwise ops eligible for in-place chain fusion
_ELEMENTWISE = frozenset({
    "add", "neg", "mul", "div", "pow", "exp", "log", "tanh", "sigmoid",
    "relu", "leaky_relu", "abs", "clip",
})

#: activations fusable onto a linear (matmul + bias) pair
_LINEAR_ACTS = frozenset({"relu", "sigmoid", "tanh", "leaky_relu"})


def _use_sites(ops: "list[TapeOp]", out_slot: int) -> dict:
    """slot -> list of op indices reading it (final output reads at N)."""
    uses: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        for s in op.ins:
            uses.setdefault(s, []).append(i)
        if op.op == "ew_chain":
            for _, operands, _ in op.params["chain"]:
                for o in operands:
                    if o != "acc":
                        uses.setdefault(o, []).append(i)
    uses.setdefault(out_slot, []).append(len(ops))
    return uses


def _only_used_by(uses: dict, slot: int, op_index: int) -> bool:
    return all(u == op_index for u in uses.get(slot, [op_index]))


def fuse_tape(tape: OpTape) -> "tuple[OpTape, int]":
    """Collapse linear triples and elementwise chains; returns the fused
    tape and the number of ops eliminated."""
    ops = list(tape.ops)
    fused_away = 0

    # Pass A: matmul -> add(bias) [-> activation] becomes one "linear".
    out: list[TapeOp] = []
    uses = _use_sites(ops, tape.out_slot)
    i = 0
    while i < len(ops):
        op = ops[i]
        if (op.op == "matmul" and i + 1 < len(ops)
                and ops[i + 1].op == "add"
                and op.out in ops[i + 1].ins
                and ops[i + 1].shape == op.shape
                and _only_used_by(uses, op.out, i + 1)):
            add = ops[i + 1]
            bias = add.ins[0] if add.ins[1] == op.out else add.ins[1]
            act, act_params, consumed = None, {}, 2
            if (i + 2 < len(ops) and ops[i + 2].op in _LINEAR_ACTS
                    and ops[i + 2].ins == (add.out,)
                    and ops[i + 2].shape == add.shape
                    and _only_used_by(uses, add.out, i + 2)):
                act = ops[i + 2].op
                act_params = dict(ops[i + 2].params)
                consumed = 3
            last = ops[i + consumed - 1]
            out.append(TapeOp(
                op="linear", ins=(op.ins[0], op.ins[1], bias),
                params={"act": act, "act_params": act_params},
                out=last.out, shape=last.shape, dtype=last.dtype))
            fused_away += consumed - 1
            i += consumed
            continue
        out.append(op)
        i += 1
    ops = out

    # Pass B: runs of single-use, shape-preserving elementwise ops fuse
    # into one in-place chain over a single accumulator buffer.
    uses = _use_sites(ops, tape.out_slot)
    out = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.op not in _ELEMENTWISE:
            out.append(op)
            i += 1
            continue
        chain = [(op.op, tuple(op.ins), dict(op.params))]
        j = i
        while (j + 1 < len(ops) and ops[j + 1].op in _ELEMENTWISE
               and ops[j].out in ops[j + 1].ins
               and ops[j + 1].shape == op.shape
               and _only_used_by(uses, ops[j].out, j + 1)):
            nxt = ops[j + 1]
            operands = tuple("acc" if s == ops[j].out else s
                             for s in nxt.ins)
            chain.append((nxt.op, operands, dict(nxt.params)))
            j += 1
        if len(chain) >= 2:
            last = ops[j]
            out.append(TapeOp(
                op="ew_chain",
                ins=tuple(s for _, operands, _ in chain
                          for s in operands if s != "acc"),
                params={"chain": chain},
                out=last.out, shape=last.shape, dtype=last.dtype))
            fused_away += len(chain) - 1
            i = j + 1
            continue
        out.append(op)
        i += 1

    return OpTape(slots=tape.slots, ops=out, out_slot=tape.out_slot,
                  fused_away=tape.fused_away + fused_away), fused_away


# --------------------------------------------------------------------- #
# Compilation: liveness, arena, kernel closures
# --------------------------------------------------------------------- #

#: ops whose output is a view/cheap derivation of their first input; they
#: get no arena buffer and extend the storage root's live range instead
_ALIAS_OPS = frozenset({"reshape", "transpose", "index"})

#: ops with no out=-capable kernel; they allocate fresh per replay
_ALLOC_OPS = frozenset({"stack"})


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The numerically stable logistic, matching Tensor.sigmoid bit-for-bit.
    np.copyto(out, np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
        np.exp(np.clip(x, None, 0))
        / (1.0 + np.exp(np.clip(x, None, 0)))))
    return out


def _act_compile(act: str, params: dict):
    """Resolve a fused post-op activation to an in-place kernel once."""
    if act == "relu":
        def fn(buf):
            np.multiply(buf, buf > 0, out=buf)
    elif act == "tanh":
        def fn(buf):
            np.tanh(buf, out=buf)
    elif act == "sigmoid":
        def fn(buf):
            _sigmoid_into(np.array(buf), buf)
    elif act == "leaky_relu":
        slope = params.get("negative_slope", 0.01)

        def fn(buf):
            np.multiply(buf, np.where(buf > 0, 1.0, slope), out=buf)
    else:  # pragma: no cover - fusion only admits _LINEAR_ACTS
        raise TraceError(f"unknown fused activation {act!r}")
    return fn


def _ew_compile(name: str, params: dict):
    """Resolve one elementwise op to a kernel ``fn(a, b, buf)`` once.

    Dispatch by name and constant-parameter lookup happen here, at
    compile time; replay calls the returned closure directly (``b`` is
    None for unary ops).
    """
    if name == "add":
        return lambda a, b, buf: np.add(a, b, out=buf)
    if name == "mul":
        return lambda a, b, buf: np.multiply(a, b, out=buf)
    if name == "div":
        return lambda a, b, buf: np.true_divide(a, b, out=buf)
    if name == "neg":
        return lambda a, b, buf: np.negative(a, out=buf)
    if name == "pow":
        exponent = params["exponent"]
        return lambda a, b, buf: np.power(a, exponent, out=buf)
    if name == "exp":
        return lambda a, b, buf: np.exp(a, out=buf)
    if name == "log":
        return lambda a, b, buf: np.log(a, out=buf)
    if name == "tanh":
        return lambda a, b, buf: np.tanh(a, out=buf)
    if name == "abs":
        return lambda a, b, buf: np.absolute(a, out=buf)
    if name == "sigmoid":
        return lambda a, b, buf: _sigmoid_into(np.asarray(a), buf)
    if name == "relu":
        return lambda a, b, buf: np.multiply(a, np.asarray(a) > 0, out=buf)
    if name == "leaky_relu":
        slope = params["negative_slope"]

        def fn(a, b, buf):
            np.multiply(a, np.where(np.asarray(a) > 0, 1.0, slope),
                        out=buf)
        return fn
    if name == "clip":
        lo, hi = params["lo"], params["hi"]
        return lambda a, b, buf: np.clip(a, lo, hi, out=buf)
    # pragma: no cover - _ELEMENTWISE and this table stay in sync
    raise TraceError(f"unknown elementwise op {name!r}")


def _build_step(op: TapeOp, buf: "np.ndarray | None", slots: list):
    """Compile one TapeOp into a closure ``step(env)``.

    Slot indices and the arena buffer are baked in; the closure performs
    only NumPy calls and two list indexing operations per operand.

    Layout optimization: a ``(B, n, k) @ (k, m)`` matmul (every Linear on
    padded batched states) dispatches as B small GEMMs under
    ``np.matmul``; since the batch axis is dense, the plan folds it into
    one ``(B*n, k) @ (k, m)`` GEMM writing a reshaped view of the arena
    buffer — one BLAS call instead of B.
    """
    k, ins, params = op.out, op.ins, op.params
    name = op.op

    def _foldable(x_slot: int, w_slot: int) -> bool:
        xs, ws = slots[x_slot].shape, slots[w_slot].shape
        return (xs is not None and ws is not None
                and len(xs) == 3 and len(ws) == 2 and len(op.shape) == 3)

    if name in ("add", "mul", "div", "pow", "neg", "exp", "log", "tanh",
                "abs", "sigmoid", "relu", "leaky_relu", "clip"):
        fn = _ew_compile(name, params)
        a = ins[0]
        if len(ins) > 1:
            b = ins[1]

            def step(env):
                fn(env[a], env[b], buf)
                env[k] = buf
            return step

        def step(env):
            fn(env[a], None, buf)
            env[k] = buf
        return step

    if name == "matmul":
        a, b = ins
        if _foldable(a, b):
            kk = slots[a].shape[2]
            flat = buf.reshape(-1, buf.shape[-1])

            def step(env):
                np.matmul(env[a].reshape(-1, kk), env[b], out=flat)
                env[k] = buf
            return step

        def step(env):
            env[k] = np.matmul(env[a], env[b], out=buf)
        return step

    if name == "linear":
        x, w, bias = ins
        act = params["act"]
        act_params = params["act_params"]
        bias_shape = slots[bias].shape
        if _foldable(x, w) and bias_shape is not None \
                and len(bias_shape) == 1:
            kk = slots[x].shape[2]
            flat = buf.reshape(-1, buf.shape[-1])

            if act is None:
                def step(env):
                    np.matmul(env[x].reshape(-1, kk), env[w], out=flat)
                    np.add(flat, env[bias], out=flat)
                    env[k] = buf
                return step

            act_fn = _act_compile(act, act_params)

            def step(env):
                np.matmul(env[x].reshape(-1, kk), env[w], out=flat)
                np.add(flat, env[bias], out=flat)
                act_fn(flat)
                env[k] = buf
            return step

        if act is None:
            def step(env):
                np.matmul(env[x], env[w], out=buf)
                np.add(buf, env[bias], out=buf)
                env[k] = buf
            return step

        act_fn = _act_compile(act, act_params)

        def step(env):
            np.matmul(env[x], env[w], out=buf)
            np.add(buf, env[bias], out=buf)
            act_fn(buf)
            env[k] = buf
        return step

    if name == "ew_chain":
        # "acc" operands read the accumulator (this op's own buffer);
        # bake that choice as a negative slot index resolved up front.
        subs = []
        for sub_name, operands, sub_params in params["chain"]:
            a = operands[0]
            b = operands[1] if len(operands) > 1 else None
            subs.append((_ew_compile(sub_name, sub_params),
                         -1 if a == "acc" else a,
                         -2 if b is None else (-1 if b == "acc" else b)))

        def step(env):
            for fn, a, b in subs:
                fn(buf if a == -1 else env[a],
                   None if b == -2 else (buf if b == -1 else env[b]),
                   buf)
            env[k] = buf
        return step

    if name == "sum":
        a, axis, keepdims = ins[0], params["axis"], params["keepdims"]

        def step(env):
            env[k] = env[a].sum(axis=axis, keepdims=keepdims, out=buf)
        return step

    if name == "max":
        a, axis, keepdims = ins[0], params["axis"], params["keepdims"]

        def step(env):
            env[k] = env[a].max(axis=axis, keepdims=keepdims, out=buf)
        return step

    if name == "softmax":
        a, axis = ins[0], params["axis"]

        def step(env):
            x = env[a]
            np.subtract(x, x.max(axis=axis, keepdims=True), out=buf)
            np.exp(buf, out=buf)
            np.true_divide(buf, buf.sum(axis=axis, keepdims=True),
                           out=buf)
            env[k] = buf
        return step

    if name == "log_softmax":
        a, axis = ins[0], params["axis"]

        def step(env):
            x = env[a]
            np.subtract(x, x.max(axis=axis, keepdims=True), out=buf)
            lse = np.log(np.exp(buf).sum(axis=axis, keepdims=True))
            np.subtract(buf, lse, out=buf)
            env[k] = buf
        return step

    if name == "take":
        a, idx = ins

        def step(env):
            env[k] = np.take(env[a], env[idx], axis=0, out=buf)
        return step

    if name == "index":
        a, idx = ins[0], params["idx"]

        def step(env):
            env[k] = env[a][idx]
        return step

    if name == "reshape":
        a, shape = ins[0], params["shape"]

        def step(env):
            env[k] = env[a].reshape(shape)
        return step

    if name == "transpose":
        a, axes = ins[0], params["axes"]
        if axes is None:
            def step(env):
                env[k] = env[a].transpose()
        else:
            def step(env):
                env[k] = env[a].transpose(axes)
        return step

    if name == "concat":
        parts, axis = list(ins), params["axis"]

        def step(env):
            np.concatenate([env[p] for p in parts], axis=axis, out=buf)
            env[k] = buf
        return step

    if name == "stack":
        parts, axis = list(ins), params["axis"]

        def step(env):
            env[k] = np.stack([env[p] for p in parts], axis=axis)
        return step

    if name == "scatter_add":
        vals, idx = ins

        def step(env):
            buf.fill(0.0)
            np.add.at(buf, env[idx], env[vals])
            env[k] = buf
        return step

    if name == "attention":
        q, key, v = ins[:3]
        bias = ins[3] if len(ins) > 3 else None
        scale = params["scale"]
        # The score buffer is private to this step, outside the arena.
        scores = np.empty(slots[q].shape[:-1] + (slots[key].shape[-2],))

        def step(env):
            p = _attention_probs(env[q], env[key], scale,
                                 None if bias is None else env[bias],
                                 out=scores)
            env[k] = np.matmul(p, env[v], out=buf)
        return step

    raise TraceError(f"no kernel for traced op {name!r}")


@dataclass
class CompiledPlan:
    """A replayable compiled tape: env + arena + flat step list."""

    tape: OpTape
    env: list
    steps: list
    out_slot: int
    param_bind: list
    input_bind: list
    arena_bytes: int
    #: op index -> arena buffer id (None for alias/alloc ops); test hook
    buffer_ids: list
    #: storage root slot -> (first op index, last op index) live range
    live_ranges: dict

    def replay(self, batch) -> np.ndarray:
        env = self.env
        for slot, param in self.param_bind:
            env[slot] = param.data
        for slot, fn in self.input_bind:
            env[slot] = fn(batch)
        for step in self.steps:
            step(env)
        return np.array(env[self.out_slot], dtype=np.float64)


def compile_tape(tape: OpTape, model) -> CompiledPlan:
    """Liveness + arena assignment + kernel closure compilation."""
    n_slots = len(tape.slots)
    uses = _use_sites(tape.ops, tape.out_slot)

    # Storage roots: alias outputs share their base's storage, so buffer
    # recycling must honor the *root's* last use, not the view's.
    root = list(range(n_slots))
    for op in tape.ops:
        if op.op in _ALIAS_OPS:
            root[op.out] = root[op.ins[0]]

    last_use = [-1] * n_slots
    for slot, sites in uses.items():
        r = root[slot]
        last_use[r] = max(last_use[r], max(sites))
    last_use[root[tape.out_slot]] = len(tape.ops) + 1

    released_at: dict[int, list[int]] = {}
    for s in range(n_slots):
        if tape.slots[s].kind == _K_OP and 0 <= last_use[s] <= len(tape.ops):
            released_at.setdefault(last_use[s], []).append(s)

    pool: dict[tuple, list[np.ndarray]] = {}
    buffer_of: dict[int, np.ndarray] = {}
    buffer_ids: list = []
    live_ranges: dict[int, tuple] = {}
    arena_bytes = 0
    steps = []
    # Alias pre-resolution: every non-alloc op writes the same arena
    # buffer on every replay, so a reshape/transpose/index of such a slot
    # (or of a const) yields the *same view object* each time.  Those
    # views are computed here, once, and their replay steps dropped; only
    # aliases of per-replay bindings (params, inputs, alloc-op outputs)
    # keep a live step.
    fixed: dict[int, np.ndarray] = {
        s: slot.value for s, slot in enumerate(tape.slots)
        if slot.kind == _K_CONST
    }
    elided_views: list[tuple[int, np.ndarray]] = []
    for i, op in enumerate(tape.ops):
        buf = None
        if op.op not in _ALIAS_OPS and op.op not in _ALLOC_OPS:
            key = (tuple(op.shape), op.dtype)
            free = pool.get(key)
            if free:
                buf = free.pop()
            else:
                buf = np.empty(op.shape, dtype=np.dtype(op.dtype))
                arena_bytes += buf.nbytes
            buffer_of[op.out] = buf
            fixed[op.out] = buf
        view = None
        if op.op in _ALIAS_OPS and op.ins[0] in fixed:
            src = fixed[op.ins[0]]
            if op.op == "reshape":
                view = src.reshape(op.params["shape"])
                if not np.shares_memory(view, src):
                    # Non-contiguous source: reshape copies, so the
                    # result depends on replay-time data.  Keep the step.
                    view = None
            elif op.op == "transpose":
                axes = op.params["axes"]
                view = src.transpose() if axes is None \
                    else src.transpose(axes)
            else:  # "index"
                view = src[op.params["idx"]]
        if view is not None:
            fixed[op.out] = view
            elided_views.append((op.out, view))
        else:
            steps.append(_build_step(op, buf, tape.slots))
        buffer_ids.append(id(buf) if buf is not None else None)
        live_ranges[op.out] = (i, last_use[root[op.out]])
        # Recycle only after this op ran: an op must never write into a
        # buffer that one of its own inputs still occupies.
        for s in released_at.get(i, []):
            dead = buffer_of.pop(s, None)
            if dead is not None:
                key = (dead.shape, str(dead.dtype))
                pool.setdefault(key, []).append(dead)

    env: list = [None] * n_slots
    for s, view in elided_views:
        env[s] = view
    param_bind, input_bind = [], []
    params_by_name = dict(model.named_parameters())
    for s, slot in enumerate(tape.slots):
        if slot.kind == _K_CONST:
            env[s] = slot.value
        elif slot.kind == _K_PARAM:
            param = params_by_name.get(slot.name)
            if param is None:
                raise TraceError(f"traced parameter {slot.name!r} missing")
            param_bind.append((s, param))
        elif slot.kind == _K_INPUT:
            fn = _DERIVER_BY_NAME.get(slot.name)
            if fn is None:
                raise TraceError(f"unknown input derivation {slot.name!r}")
            input_bind.append((s, fn))

    return CompiledPlan(tape=tape, env=env, steps=steps,
                        out_slot=tape.out_slot, param_bind=param_bind,
                        input_bind=input_bind, arena_bytes=arena_bytes,
                        buffer_ids=buffer_ids, live_ranges=live_ranges)


# --------------------------------------------------------------------- #
# Cache + executor
# --------------------------------------------------------------------- #


class TraceCache:
    """Bounded LRU of signature -> :class:`CompiledPlan`.

    Unsynchronized on purpose: the owning :class:`TracedExecutor`
    serializes all access under its own lock.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE):
        if capacity < 1:
            raise ValueError("TraceCache capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self._entries: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, sig: tuple) -> "CompiledPlan | None":
        plan = self._entries.get(sig)
        if plan is not None:
            self._entries.move_to_end(sig)
        return plan

    def put(self, sig: tuple, plan: CompiledPlan) -> None:
        self._entries[sig] = plan
        self._entries.move_to_end(sig)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def pop(self, sig: tuple) -> None:
        self._entries.pop(sig, None)

    def signatures(self) -> list:
        return list(self._entries)

    def arena_bytes(self) -> int:
        return sum(p.arena_bytes for p in self._entries.values())


class TracedExecutor:
    """Compile-on-miss trace cache + replay front end for one model.

    Thread-safe: compilation and replay share one arena per plan, so
    :meth:`run` serializes under a lock (serving funnels through a single
    dispatcher thread anyway; the lock makes direct use safe too).
    """

    def __init__(self, model, capacity: int = DEFAULT_CACHE_SIZE,
                 fuse: bool = True):
        self.model = model
        self.fuse = fuse
        self.cache = TraceCache(capacity)
        self._lock = new_lock("TracedExecutor._lock")

    def run(self, batch, allow_trace: bool = True) -> np.ndarray:
        """Replay (compiling on first sight of the signature).

        Raises :class:`GradModeError` under grad, :class:`TraceMissError`
        on a signature miss with ``allow_trace=False``, and
        :class:`TraceError` when tracing/replay fails (the plan is
        dropped so the next call can re-trace).
        """
        if is_grad_enabled():
            raise GradModeError(
                "traced replay requires no_grad: the compiled tape "
                "records no autograd graph, so gradients would be "
                "silently wrong — wrap the call in no_grad() or use the "
                "eager forward for training")
        sig = batch_signature(batch)
        with self._lock:
            plan = self.cache.get(sig)
            if plan is None:
                counter("trace_cache_misses_total").inc()
                if not allow_trace:
                    raise TraceMissError(
                        f"no compiled plan for signature {sig}")
                plan = self._compile(batch)
                self.cache.put(sig, plan)
                gauge("trace_arena_bytes").set(self.cache.arena_bytes())
            else:
                counter("trace_cache_hits_total").inc()
            try:
                return plan.replay(batch)
            except Exception as exc:
                self.cache.pop(sig)
                raise TraceError(f"replay failed: {exc}") from exc

    def _compile(self, batch) -> CompiledPlan:
        try:
            tape, ref = trace_forward(self.model, batch)
            if self.fuse:
                tape, fused = fuse_tape(tape)
                if fused:
                    counter("trace_fused_ops_total").inc(fused)
            plan = compile_tape(tape, self.model)
            got = plan.replay(batch)
        except (TraceError, GradModeError):
            raise
        except Exception as exc:
            raise TraceError(f"trace/compile failed: {exc}") from exc
        if got.shape != ref.shape or not np.allclose(
                got, ref, rtol=0.0, atol=1e-9, equal_nan=True):
            raise TraceError(
                "compile-time self-check failed: replay deviates from "
                "the traced eager forward")
        return plan
