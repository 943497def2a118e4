"""Optimizers for the NumPy autograd stack (SGD, Adam)."""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).
    """
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(sq))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Optimizer:
    def __init__(self, params):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:  # pragma: no cover
        raise NotImplementedError

    def _check_param_count(self, arrays: list) -> None:
        if len(arrays) != len(self.params):
            raise ValueError(
                f"optimizer state for {len(arrays)} parameters cannot be "
                f"loaded into an optimizer over {len(self.params)}")


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def state_dict(self) -> dict:
        """Serializable optimizer state (checkpoint/restart support)."""
        return {"lr": self.lr,
                "velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        self._check_param_count(state["velocity"])
        self.lr = float(state["lr"])
        self._velocity = [np.asarray(v, dtype=np.float64).copy()
                         for v in state["velocity"]]


class Adam(Optimizer):
    """Adam with decoupled epsilon handling; matches the paper's optimizer.

    The paper trains DNN-occu and every baseline with Adam at
    ``lr = weight_decay = 1e-4`` and otherwise default hyperparameters.
    """

    def __init__(self, params, lr: float = 1e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        # Each moment is one flat buffer, and ``_m`` / ``_v`` hold a view
        # per parameter.  When every parameter has a gradient, a step is a
        # dozen ops over whole buffers instead of a dozen per parameter.
        # The arithmetic is elementwise, so the result is the same bit
        # for bit.
        ends = np.cumsum([p.data.size for p in self.params])
        self._spans = list(zip(np.r_[0, ends[:-1]], ends))
        self._m_flat, self._v_flat, *self._scratch = np.zeros((4, ends[-1]))
        self._m = [self._m_flat[lo:hi].reshape(p.data.shape)
                   for p, (lo, hi) in zip(self.params, self._spans)]
        self._v = [self._v_flat[lo:hi].reshape(p.data.shape)
                   for p, (lo, hi) in zip(self.params, self._spans)]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        if all(p.grad is not None for p in self.params):
            self._fused_step(bias1, bias2)
            return
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _fused_step(self, bias1: float, bias2: float) -> None:
        """The loop body of :meth:`step`, over the flat buffers."""
        b1, b2 = self.beta1, self.beta2
        g, tmp = self._scratch
        np.concatenate([p.grad.ravel() for p in self.params], out=g)
        if self.weight_decay:
            np.concatenate([p.data.ravel() for p in self.params], out=tmp)
            tmp *= self.weight_decay
            g += tmp
        m, v = self._m_flat, self._v_flat
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        update = np.divide(m, bias1, out=g)
        update *= self.lr
        denom = np.sqrt(np.divide(v, bias2, out=tmp), out=tmp)
        denom += self.eps
        update /= denom
        for p, (lo, hi) in zip(self.params, self._spans):
            p.data -= update[lo:hi].reshape(p.data.shape)

    def state_dict(self) -> dict:
        """Serializable optimizer state (checkpoint/restart support)."""
        return {"lr": self.lr, "t": self._t,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        """Restore state from :meth:`state_dict` (bit-exact resume)."""
        self._check_param_count(state["m"])
        self._check_param_count(state["v"])
        self.lr = float(state["lr"])
        self._t = int(state["t"])
        for flat, arrays in ((self._m_flat, state["m"]),
                             (self._v_flat, state["v"])):
            flat[:] = np.concatenate(
                [np.asarray(a, dtype=np.float64).ravel() for a in arrays])
