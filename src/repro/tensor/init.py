"""Weight initialization schemes (Xavier/Glorot, Kaiming/He)."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "kaiming_uniform", "zeros", "ones"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                    negative_slope: float = 0.0) -> np.ndarray:
    """He uniform appropriate for (leaky-)ReLU fan-in scaling."""
    fan_in, _ = _fans(shape)
    gain = np.sqrt(2.0 / (1.0 + negative_slope**2))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
