"""AdamW with decoupled weight decay, and the warmup-cosine learning rate."""
from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_steps: int, lr_min: float = 0.0) -> float:
    """Linear warmup from ``lr_min`` to ``base_lr``, then cosine decay back to ``lr_min``.

    ``step`` counts from 0; the warmup endpoint (``step == warmup_steps``)
    yields exactly ``base_lr`` and ``step == total_steps`` exactly ``lr_min``.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= warmup_steps < total_steps:
        raise ConfigError(
            f"warmup_steps must lie in [0, total_steps), got {warmup_steps} of {total_steps}"
        )
    if step < warmup_steps:
        return lr_min + (base_lr - lr_min) * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    progress = min(max(progress, 0.0), 1.0)
    return lr_min + 0.5 * (base_lr - lr_min) * (1.0 + math.cos(math.pi * progress))


def adamw_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
) -> None:
    """One in-place AdamW step with bias correction; ``t`` counts from 1."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    if weight_decay:
        param -= lr * weight_decay * param
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Decay applies only to matrices and higher-rank tensors; vectors (biases,
    norm scales, log-sigma) are exempt.  Moment buffers keep the parameter
    dtype so checkpoints restore bit-exactly.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            decay = self.weight_decay if p.data.ndim >= 2 else 0.0
            adamw_update(
                p.data, p.grad, self.m[name], self.v[name], self.t,
                lr, self.beta1, self.beta2, self.eps, decay,
            )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name].copy()
            out[f"opt.v.{name}"] = self.v[name].copy()
        return out

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray], t: int) -> None:
        missing = [k for name in self.params for k in (f"opt.m.{name}", f"opt.v.{name}") if k not in arrays]
        if missing:
            raise ShapeError(f"state is missing {len(missing)} optimizer moment arrays, first '{missing[0]}'")
        for name in self.params:
            self.m[name] = arrays[f"opt.m.{name}"].astype(self.m[name].dtype, copy=True)
            self.v[name] = arrays[f"opt.v.{name}"].astype(self.v[name].dtype, copy=True)
        self.t = t
