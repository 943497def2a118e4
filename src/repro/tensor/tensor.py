"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class used by every neural network
in the reproduction (the DNN-occu GNN, and the MLP / LSTM / Transformer /
DNNPerf / BRP-NAS baselines).  The design follows the classic tape-based
approach: each operation records a closure that propagates the output
gradient to its inputs, and :meth:`Tensor.backward` replays the tape in
reverse topological order.

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
    over flattened (row, column) bins when ``idx`` is an in-range
    non-negative integer array.  bincount sums each bin in input order
    from 0.0, as ``add.at`` does, so results are bit-identical.  Other
    indices (slices, tuples, masks, negative rows) keep ``np.add.at``.
    """
    if isinstance(idx, np.ndarray) and idx.dtype.kind in "iu" and shape \
            and (idx.size == 0
                 or (idx.min() >= 0 and idx.max() < shape[0])):
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


class Tensor:
    """A NumPy-backed array node in an autograd graph.

    Parameters
    ----------
    data:
        Anything convertible by :func:`numpy.asarray`.
    requires_grad:
        If true, gradients flowing into this tensor accumulate in
        :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
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
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Ownership rule: ``grad`` may be shared (``__add__`` hands one
        # buffer to both parents, reshape passes a view), so it is never
        # written to.  A leaf copies it on first arrival, then adds in
        # place: clip_grad_norm and the optimizer own the leaf buffers.
        # An interior node borrows it and adds out of place; backward()
        # drops it once the node's closure has run.
        if self.grad is None:
            self.grad = grad if self._backward is not None \
                else np.array(grad, dtype=np.float64)
        elif self._backward is None:
            self.grad += grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (appropriate for scalar losses).  Only
        leaf tensors keep a ``.grad`` afterwards.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        # Topological order via iterative DFS (recursion would overflow on
        # deep LSTM unrolls).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.multiply.outer(g, b) if g.ndim else g * b
                elif a.ndim == 1:
                    ga = g @ np.swapaxes(b, -1, -2)
                    ga = _unbroadcast(ga, a.shape)
                else:
                    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
                self._accumulate(ga.reshape(a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, g) if g.ndim else a * g
                elif b.ndim == 1:
                    gb = np.swapaxes(a, -1, -2) @ g if g.ndim > 1 else a.T @ g
                    gb = _unbroadcast(gb, b.shape)
                else:
                    gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
                other._accumulate(gb.reshape(b.shape))

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, 0, None))),
            np.exp(np.clip(self.data, None, 0))
            / (1.0 + np.exp(np.clip(self.data, None, 0))),
        )

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * scale)

        return self._make(self.data * scale, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = out_data
            ge = g
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(sorted(a % self.ndim for a in axes))
                expanded = np.expand_dims(out_data, axes)
                ge = np.expand_dims(g, axes)
            mask = self.data == expanded
            # Split gradient among ties, matching NumPy's subgradient choice.
            counts = mask.sum(
                axis=axis, keepdims=True
            ) if axis is not None else mask.sum()
            self._accumulate(mask * ge / counts)

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
        out_data = self.data.reshape(shape)
        orig = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(orig))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inv))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_index_add(idx, g, self.shape))

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray) -> None:
            parts = np.moveaxis(g, axis, 0)
            for t, part in zip(tensors, parts):
                if t.requires_grad:
                    t._accumulate(part)

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

        def backward(g: np.ndarray) -> None:
            if values.requires_grad:
                values._accumulate(g[index])

        return Tensor._make(out_data, (values,), backward)

    # ------------------------------------------------------------------ #
    # Softmax family (fused for numerical stability)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                dot = (g * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (g - dot))

        return self._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - lse
        soft = np.exp(out_data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        return self._make(out_data, (self,), backward)

    @staticmethod
    def attention(q, k, v, bias=None, scale: float = 1.0) -> "Tensor":
        """``softmax(q @ kᵀ · scale + bias) @ v`` as one tape node.

        ``q`` is ``(..., n_q, d)``, ``k`` and ``v`` are ``(..., n_kv, d)``
        and ``bias`` (a Tensor, an ndarray or None) broadcasts to the
        ``(..., n_q, n_kv)`` scores.  The backward keeps only the
        probabilities and runs the composed ops' backward arithmetic in
        their order, so the output and every gradient are bit-identical
        to ``((q @ kᵀ) * scale + bias).softmax(-1) @ v``.
        """
        q, k, v = (Tensor._coerce(t) for t in (q, k, v))
        bias = None if bias is None else Tensor._coerce(bias)
        p = _attention_probs(q.data, k.data, scale,
                             None if bias is None else bias.data)

        def backward(g: np.ndarray) -> None:
            if v.requires_grad:
                v._accumulate(np.swapaxes(p, -1, -2) @ g)
            # softmax backward, in the fresh product ds
            ds = g @ np.swapaxes(v.data, -1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            gb = None
            if bias is not None and bias.requires_grad:
                gb = _unbroadcast(ds, bias.shape)
                bias._accumulate(gb)
            if gb is ds:  # the bias borrowed ds whole: scale a copy
                ds = ds * scale
            else:
                ds *= scale
            if q.requires_grad:
                q._accumulate(ds @ k.data)
            if k.requires_grad:
                k._accumulate(np.swapaxes(
                    np.swapaxes(q.data, -1, -2) @ ds, -1, -2))

        parents = (q, k, v) if bias is None else (q, k, v, bias)
        return Tensor._make(p @ v.data, parents, backward)


def as_tensor(x) -> Tensor:
    """Coerce ``x`` to a :class:`Tensor` (no copy when already one)."""
    return x if isinstance(x, Tensor) else Tensor(x)
