"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class used by every neural network
in the reproduction (the DNN-occu GNN, and the MLP / LSTM / Transformer /
DNNPerf / BRP-NAS baselines).  The design follows the classic tape-based
approach, with the tape kept apart from the tensors: in grad mode each
operation gives its output a small grad node holding a closure that
propagates the output gradient to its inputs' nodes, and
:meth:`Tensor.backward` replays the nodes in reverse topological order.
A closure holds only the arrays and shapes its backward reads, so an
intermediate array that no backward reads is freed as soon as the
forward pass drops its tensor.

All heavy lifting is delegated to vectorized NumPy kernels; no Python-level
loops run over array elements.  ``float64`` is the default dtype so that the
finite-difference gradient checks in the test suite converge tightly.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Grad mode is per-thread: the serve-layer dispatcher runs inference under
# no_grad on its own thread while a client thread may be mid-training, so a
# process-global flag would silently stop tape recording for the trainer.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager disabling graph construction (like ``torch.no_grad``).

    The flag is thread-local: entering ``no_grad`` on one thread never
    affects tape recording on another.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the autograd tape."""
    return _grad_enabled()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting.

    Summing over the leading dimensions that were prepended and over any axis
    whose original extent was 1 inverts the broadcast performed in the
    forward pass.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from extent 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _index_add(idx, values: np.ndarray,
               shape: tuple[int, ...]) -> np.ndarray:
    """``np.add.at(zeros(shape), idx, values)``, as one ``np.bincount``
    when ``idx`` is an in-range non-negative integer array: over ``idx``
    itself into a 1-D table, else over flattened (row, column) bins.
    bincount sums each bin in input order from 0.0, as ``add.at`` does,
    so results are bit-identical.  Other indices (slices, tuples, masks,
    negative rows) keep ``np.add.at``.
    """
    if isinstance(idx, np.ndarray) and idx.dtype.kind in "iu" and shape \
            and (idx.size == 0
                 or (idx.min() >= 0 and idx.max() < shape[0])):
        if len(shape) == 1:
            return np.bincount(idx.ravel(), weights=values.ravel(),
                               minlength=shape[0])
        r = math.prod(shape[1:])
        bins = idx.astype(np.intp).reshape(-1, 1) * r + np.arange(r)
        return np.bincount(bins.reshape(-1), weights=values.reshape(-1),
                           minlength=shape[0] * r).reshape(shape)
    out = np.zeros(shape)
    np.add.at(out, idx, values)
    return out


def _attention_probs(q: np.ndarray, k: np.ndarray, scale: float,
                     bias: np.ndarray | None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``softmax(q @ kᵀ · scale + bias)`` over the last axis, computed in
    one score buffer (``out`` when given).  Each step is the elementwise
    arithmetic of the composed ``*``, ``+`` and :meth:`Tensor.softmax`,
    in their order, so the result is bit-identical to them."""
    s = np.matmul(q, np.swapaxes(k, -1, -2), out=out)
    s *= scale
    if bias is not None:
        s += bias
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


#: query rows per block of the attention backward's softmax row sums:
#: the ``ds * p`` product they sum is built one (..., _ROW_BLOCK, n_kv)
#: block at a time, never at the full (..., n_q, n_kv) size
_ROW_BLOCK = 32


class _Node:
    """The grad-graph node of one recorded op's output.

    ``_backward(g, *parents)`` propagates the output gradient ``g`` to
    the input nodes ``_parents`` (None for an input that needs no
    gradient).  The node holds no forward data: the closure captures
    exactly the arrays and shapes its backward reads.
    """

    __slots__ = ("_backward", "_parents", "grad")

    def __init__(self, backward: Callable[..., None],
                 parents: tuple) -> None:
        self._backward = backward
        self._parents = parents
        self.grad: np.ndarray | None = None

    def _accumulate(self, grad: np.ndarray) -> None:
        # Ownership rule: ``grad`` may be shared (``__add__`` hands one
        # buffer to both parents, reshape passes a view), so it is never
        # written to.  A node borrows it on first arrival and adds out of
        # place after that; backward() drops it once the closure has run.
        # A leaf (Tensor._accumulate) copies instead: clip_grad_norm and
        # the optimizer own the leaf buffers and scale them in place.
        self.grad = grad if self.grad is None else self.grad + grad


class Tensor:
    """A NumPy-backed array, with a node in the autograd graph when it
    is the output of a recorded op.

    Parameters
    ----------
    data:
        Anything convertible by :func:`numpy.asarray`.
    requires_grad:
        If true, gradients flowing into this tensor accumulate in
        :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    #: a leaf is its own grad node, with no closure and no parents
    _backward = None
    _parents = ()

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._node: _Node | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _grad_node(self) -> "_Node | Tensor | None":
        """The node gradients reach this tensor through: its op's node,
        the tensor itself when it is a leaf that requires grad, or None
        when no gradient flows here."""
        if not self.requires_grad:
            return None
        return self if self._node is None else self._node

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[..., None],
    ) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled():
            nodes = tuple(p._grad_node() for p in parents)
            if any(n is not None for n in nodes):
                out.requires_grad = True
                out._node = _Node(backward, nodes)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # A leaf copies the first (possibly shared) gradient and adds in
        # place after that; see _Node._accumulate for interior nodes.
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (appropriate for scalar losses).  Only
        leaf tensors keep a ``.grad`` afterwards; the tape keeps its
        saved arrays, so a second ``backward()`` accumulates again.
        """
        root = self._grad_node()
        if root is None:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        # Topological order via iterative DFS (recursion would overflow on
        # deep LSTM unrolls).
        topo: list = []
        visited: set[int] = set()
        stack: list = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

        root._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad, *node._parents)
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    # Each closure takes the output gradient and the input nodes, and
    # captures only what it reads: an input's array only when the other
    # input's gradient needs it, otherwise shapes alone.
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, sb = self.shape, other.shape

        def backward(g: np.ndarray, a, b) -> None:
            if a is not None:
                a._accumulate(_unbroadcast(g, sa))
            if b is not None:
                b._accumulate(_unbroadcast(g, sb))

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray, a) -> None:
            a._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, sb = self.shape, other.shape
        x = self.data if other.requires_grad else None
        y = other.data if self.requires_grad else None

        def backward(g: np.ndarray, a, b) -> None:
            if a is not None:
                a._accumulate(_unbroadcast(g * y, sa))
            if b is not None:
                b._accumulate(_unbroadcast(g * x, sb))

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, sb = self.shape, other.shape
        x = self.data if other.requires_grad else None
        y = other.data

        def backward(g: np.ndarray, a, b) -> None:
            if a is not None:
                a._accumulate(_unbroadcast(g / y, sa))
            if b is not None:
                b._accumulate(_unbroadcast(-g * x / (y**2), sb))

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        x = self.data

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * exponent * x ** (exponent - 1))

        return self._make(x**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        sa, sb = self.shape, other.shape
        x = self.data if other.requires_grad else None
        y = other.data if self.requires_grad else None

        def backward(g: np.ndarray, a, b) -> None:
            if a is not None:
                if len(sb) == 1:
                    ga = np.multiply.outer(g, y) if g.ndim else g * y
                else:
                    ga = _unbroadcast(g @ np.swapaxes(y, -1, -2), sa)
                a._accumulate(ga.reshape(sa))
            if b is not None:
                if len(sa) == 1:
                    gb = np.multiply.outer(x, g) if g.ndim else x * g
                elif len(sb) == 1:
                    gb = np.swapaxes(x, -1, -2) @ g if g.ndim > 1 else x.T @ g
                    gb = _unbroadcast(gb, sb)
                else:
                    gb = _unbroadcast(np.swapaxes(x, -1, -2) @ g, sb)
                b._accumulate(gb.reshape(sb))

        return self._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        x = self.data

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g / x)

        return self._make(np.log(x), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, 0, None))),
            np.exp(np.clip(self.data, None, 0))
            / (1.0 + np.exp(np.clip(self.data, None, 0))),
        )

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * mask)

        return self._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * scale)

        return self._make(self.data * scale, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape, ndim = self.shape, self.ndim

        def backward(g: np.ndarray, a) -> None:
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(sorted(x % ndim for x in axes)))
            a._accumulate(np.broadcast_to(g, shape).copy())

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        x = self.data
        out_data = x.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray, a) -> None:
            expanded = out_data
            ge = g
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(sorted(i % x.ndim for i in axes))
                expanded = np.expand_dims(out_data, axes)
                ge = np.expand_dims(g, axes)
            mask = x == expanded
            # Split gradient among ties, matching NumPy's subgradient choice.
            counts = mask.sum(
                axis=axis, keepdims=True
            ) if axis is not None else mask.sum()
            a._accumulate(mask * ge / counts)

        return self._make(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centred = self - mu
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.shape

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g.reshape(orig))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g.transpose(inv))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, idx) -> "Tensor":
        shape = self.shape

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(_index_add(idx, g, shape))

        return self._make(self.data[idx], (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray, *nodes) -> None:
            for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
                if node is not None:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    node._accumulate(g[tuple(sl)])

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray, *nodes) -> None:
            parts = np.moveaxis(g, axis, 0)
            for node, part in zip(nodes, parts):
                if node is not None:
                    node._accumulate(part)

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def scatter_add(values: "Tensor", index: np.ndarray,
                    num_rows: int) -> "Tensor":
        """Sum rows of ``values`` into ``num_rows`` output rows by ``index``.

        The message-passing primitive: ``out[index[i]] += values[i]``.
        ``index`` is a constant integer array (no gradient).
        """
        values = Tensor._coerce(values)
        index = np.asarray(index, dtype=np.intp)
        out_data = _index_add(index, values.data,
                              (num_rows,) + values.shape[1:])

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g[index])

        return Tensor._make(out_data, (values,), backward)

    # ------------------------------------------------------------------ #
    # Softmax family (fused for numerical stability)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray, a) -> None:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

        return self._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - lse
        soft = np.exp(out_data)

        def backward(g: np.ndarray, a) -> None:
            a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        return self._make(out_data, (self,), backward)

    @staticmethod
    def attention(q, k, v, bias=None, scale: float = 1.0) -> "Tensor":
        """``softmax(q @ kᵀ · scale + bias) @ v`` as one tape node.

        ``q`` is ``(..., n_q, d)``, ``k`` and ``v`` are ``(..., n_kv, d)``
        and ``bias`` (a Tensor, an ndarray or None) broadcasts to the
        ``(..., n_q, n_kv)`` scores.  The backward keeps only the
        probabilities and the inputs' arrays, and runs the composed ops'
        backward arithmetic in their order, so the output and every
        gradient are bit-identical to
        ``((q @ kᵀ) * scale + bias).softmax(-1) @ v``.
        """
        q, k, v = (Tensor._coerce(t) for t in (q, k, v))
        bias = None if bias is None else Tensor._coerce(bias)
        p = _attention_probs(q.data, k.data, scale,
                             None if bias is None else bias.data)
        qd = q.data if k.requires_grad else None
        kd = k.data if q.requires_grad else None
        vd = v.data
        bias_shape = None if bias is None else bias.shape

        def backward(g: np.ndarray, nq, nk, nv, nb=None) -> None:
            if nv is not None:
                nv._accumulate(np.swapaxes(p, -1, -2) @ g)
            # softmax backward, in the fresh product ds.  Each row sum of
            # ds * p is taken over one block of rows at a time: the same
            # per-row sums, without a full-size product.
            ds = g @ np.swapaxes(vd, -1, -2)
            dot = np.empty(ds.shape[:-1] + (1,))
            for lo in range(0, ds.shape[-2], _ROW_BLOCK):
                rows = (..., slice(lo, lo + _ROW_BLOCK), slice(None))
                dot[rows] = (ds[rows] * p[rows]).sum(axis=-1, keepdims=True)
            ds -= dot
            ds *= p
            gb = None
            if nb is not None:
                gb = _unbroadcast(ds, bias_shape)
                nb._accumulate(gb)
            if gb is ds:  # the bias borrowed ds whole: scale a copy
                ds = ds * scale
            else:
                ds *= scale
            if nq is not None:
                nq._accumulate(ds @ kd)
            if nk is not None:
                nk._accumulate(np.swapaxes(
                    np.swapaxes(qd, -1, -2) @ ds, -1, -2))

        parents = (q, k, v) if bias is None else (q, k, v, bias)
        return Tensor._make(p @ v.data, parents, backward)


def as_tensor(x) -> Tensor:
    """Coerce ``x`` to a :class:`Tensor` (no copy when already one)."""
    return x if isinstance(x, Tensor) else Tensor(x)
