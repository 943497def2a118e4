"""NumPy-backed reverse-mode autograd: tensors, modules, optimizers, init."""

from .tensor import Tensor, no_grad, is_grad_enabled, as_tensor
from .module import Module, ModuleList, Parameter
from .optim import SGD, Adam, clip_grad_norm
from . import init
from .trace import (DEFAULT_CACHE_SIZE, GradModeError, TraceCache,
                    TraceError, TraceMissError, TracedExecutor,
                    batch_signature)

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "as_tensor",
    "Module", "ModuleList", "Parameter",
    "SGD", "Adam", "clip_grad_norm",
    "init",
    "TraceError", "TraceMissError", "GradModeError",
    "TraceCache", "TracedExecutor", "batch_signature",
    "DEFAULT_CACHE_SIZE",
]
