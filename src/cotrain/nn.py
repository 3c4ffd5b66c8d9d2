"""Minimal parameter-container layer on top of :mod:`cotrain.tensor`.

Modules hold :class:`Tensor` parameters as attributes and expose them under
dotted names for the optimizer and for checkpoints.  Initialization draws from
an :class:`Rng` passed to each constructor: weights are truncated normal with
standard deviation 0.02, biases start at zero.
"""
from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .rng import Rng
from .tensor import Tensor

INIT_STD = 0.02


def trunc_normal_param(rng: Rng, shape, std: float = INIT_STD) -> Tensor:
    return Tensor(rng.truncated_normal(shape, std=std).astype(np.float32), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


class Module:
    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def _own_params(self) -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._own_params():
            yield prefix + name, param
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def to_dtype(self, dtype) -> "Module":
        """Convert every parameter in place (used for float64 gradient checks)."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
        return self


def param_targets(
    params: Mapping[str, Tensor], arrays: Mapping[str, np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(parameter array, entry)`` pairs for a load of a module's ``params``, checked but not copied.

    ``params`` is the module's ``named_parameters`` as a mapping, such as the
    optimizer's, so the module tree need not be walked.  A missing or
    off-shape entry raises ShapeError; extra entries are ignored.  Copy each
    entry into its parameter array rather than rebinding ``p.data``: under
    an optimizer the arrays are arena views.
    """
    missing = sorted(set(params) - set(arrays))
    if missing:
        raise ShapeError(f"state is missing parameters: {missing}")
    for name, param in params.items():
        arr = arrays[name]
        if tuple(arr.shape) != param.shape:
            raise ShapeError(
                f"parameter '{name}' has shape {param.shape}, state has {tuple(arr.shape)}"
            )
    return [(param.data, arrays[name]) for name, param in params.items()]


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: Rng, bias: bool = True):
        self.weight = trunc_normal_param(rng, (d_in, d_out))
        self.bias = zeros_param((d_out,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = zeros_param((dim,))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)


class Mlp(Module):
    """Two-layer perceptron with an exact-GELU nonlinearity."""

    def __init__(self, d_in: int, hidden: int, d_out: int, rng: Rng):
        self.fc1 = Linear(d_in, hidden, rng)
        self.fc2 = Linear(hidden, d_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


class PoolConv(Module):
    """Strided 3-d convolution used as a pooling operator.

    Kernel extent equals the stride, so output extents divide exactly and a
    unit stride is a pointwise (1,1,1) map.  The kernel starts as the identity
    over channels averaged across the window, i.e. average pooling; at unit
    stride that is the exact identity.
    """

    def __init__(self, channels: int, stride: tuple[int, int, int]):
        st, sh, sw = stride
        kernel = np.zeros((st, sh, sw, channels, channels), dtype=np.float32)
        kernel[..., np.arange(channels), np.arange(channels)] = 1.0 / (st * sh * sw)
        self.kernel = Tensor(kernel, requires_grad=True)
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv3d(x, self.kernel, stride=self.stride)
