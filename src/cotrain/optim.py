"""AdamW with decoupled weight decay over flat arenas, and the warmup-cosine learning rate.

:class:`AdamW` keeps every parameter, its gradient and its two moments in four
flat arenas, so a step and a gradient clip are a few whole-arena numpy calls
instead of a chain of calls per tensor.  The arithmetic is :func:`adamw_update`
applied elementwise, so it gives the same bits as one call per tensor.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError
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


_ALIGN_BYTES = 64
# Elements per adamw_update call, so its temporaries stay in a core's L2
# cache.  On a 2-core Xeon (2 MiB L2 per core), a 270k-element arena took
# 1.0 ms in 32k blocks and 1.4 ms in one call (2.9 ms when glibc maps each
# 1 MB temporary afresh, as it does under its default malloc thresholds).
_BLOCK = 1 << 15


def _aligned_zeros(size: int, dtype) -> np.ndarray:
    """A zeroed 1-d array whose first element sits on a 64-byte boundary."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.zeros(size * itemsize + _ALIGN_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN_BYTES
    return raw[start : start + size * itemsize].view(dtype)


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, on flat arenas.

    Layout.  Four 1-d arenas of the parameters' dtype hold the parameters, the
    gradients and the first and second moments.  Each tensor owns the same
    segment in all four; segments start on 64-byte boundaries, matrices and
    higher-rank tensors first, then vectors.  ``p.data``, ``m[name]`` and
    ``v[name]`` are views of their segments, so checkpoint entries keep their
    names and shapes.  :meth:`step` copies each ``p.grad`` into its view and
    runs :func:`adamw_update` over the matrix slice with weight decay and over
    the vector slice (biases, norm scales, log-sigma) without, in blocks of
    ``_BLOCK`` elements.  After :meth:`clip_grad_norm` or :meth:`step`, each
    present ``p.grad`` is its gradient view, overwritten on the next step.
    Moments keep the parameter dtype so checkpoints restore bit-exactly.

    Skip rule.  A tensor whose ``grad`` is None at :meth:`step` keeps its
    parameter and both moments bit-unchanged.  When it next has a gradient,
    its bias correction uses the global step count ``t``, not a count of the
    steps it took part in.

    Rebind rule.  A caller may rebind ``p.data`` to a new array of the same
    shape (as :func:`cotrain.verify._widen` does).  The next :meth:`step` or
    :meth:`clip_grad_norm` copies it into the arena and points ``p.data`` back
    at the view, so the new values train.  Writes into ``p.data`` in place
    need nothing.
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

        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise ContractError(f"AdamW needs one parameter dtype, got {sorted(d.name for d in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        align = max(1, _ALIGN_BYTES // dtype.itemsize)
        matrices = [name for name, p in self.params.items() if p.data.ndim >= 2]
        vectors = [name for name, p in self.params.items() if p.data.ndim < 2]
        slices: dict[str, slice] = {}
        end = 0
        for group in (matrices, vectors):
            # After the loop, ``_split`` is where the vector slice starts.
            self._split = -(-end // align) * align
            for name in group:
                start = -(-end // align) * align
                end = start + self.params[name].data.size
                slices[name] = slice(start, end)
        self._data, self._grad, self._m, self._v = (_aligned_zeros(end, dtype) for _ in range(4))

        # (name, tensor, segment, parameter view, gradient view), in the dict's order.
        self._entries = []
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for name, p in self.params.items():
            s, shape = slices[name], p.data.shape
            data = self._data[s].reshape(shape)
            data[...] = p.data
            p.data = data
            self.m[name] = self._m[s].reshape(shape)
            self.v[name] = self._v[s].reshape(shape)
            self._entries.append((name, p, s, data, self._grad[s].reshape(shape)))
        # (parameter, gradient, m, v views, whether it decays) for each block of an update.
        self._blocks = [
            (self._data[part], self._grad[part], self._m[part], self._v[part], decays)
            for lo, hi, decays in ((0, self._split, True), (self._split, end, False))
            for part in (slice(start, min(start + _BLOCK, hi)) for start in range(lo, hi, _BLOCK))
        ]

    def _gather(self, norm: bool) -> tuple[list[slice], float]:
        """Copy this step's gradients into the gradient arena.

        Re-adopts rebound ``p.data``, points every present ``p.grad`` at its
        view and zeroes the segments of tensors without a gradient.  Returns
        those segments and, with ``norm``, the float64 sum of squares of the
        present gradients, tensor by tensor in the dict's order, each summed
        straight from ``p.grad`` in its own memory order.
        """
        missing = []
        total = 0.0
        for name, p, s, data, grad in self._entries:
            if p.data is not data:
                if p.data.shape != data.shape:
                    raise ShapeError(f"parameter '{name}' was rebound to shape {p.data.shape}, expected {data.shape}")
                data[...] = p.data
                p.data = data
            g = p.grad
            if g is None:
                grad.fill(0)
                missing.append(s)
                continue
            if norm:
                # Widen, then square in place: exact in float64, and faster
                # than ``np.square(g, dtype=np.float64)``, which casts in a
                # buffered loop.  Both keep g's memory order.
                sq = g.astype(np.float64)
                total += float(np.add.reduce(np.square(sq, out=sq), None))
            if g is not grad:
                if g.shape != grad.shape:
                    raise ShapeError(f"gradient of '{name}' has shape {g.shape}, expected {grad.shape}")
                grad[...] = g
                p.grad = grad
        return missing, total

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale the gradients to a global L2 norm of at most ``max_norm``; return the norm before.

        The norm is a float64 sum of squares taken tensor by tensor in the
        parameter dict's order.  Each tensor's squares are summed straight
        from ``p.grad`` in the memory order it arrived in, before the copy
        into the arena: the projection bank's gradients arrive transposed, and
        summing those in C order changes the norm's last bit in about one draw
        in six.  The bits are those of summing each ``p.grad`` alone.  A
        non-finite norm raises :class:`NumericError` naming the step (the
        0-based index of the step about to be taken, ``t``).  The scaling is
        one multiply over the whole gradient arena.
        """
        _, total = self._gather(norm=True)
        norm = total**0.5
        if not math.isfinite(norm):
            raise NumericError(f"non-finite gradient norm at step {self.t}: {norm}")
        if norm > max_norm:
            self._grad *= max_norm / norm
        return norm

    def step(self, lr: float) -> None:
        self.t += 1
        missing, _ = self._gather(norm=False)
        kept = [(s, self._data[s].copy(), self._m[s].copy(), self._v[s].copy()) for s in missing]
        for data, grad, m, v, decays in self._blocks:
            adamw_update(
                data, grad, m, v, self.t, lr, self.beta1, self.beta2, self.eps,
                self.weight_decay if decays else 0.0,
            )
        for s, data, m, v in kept:
            self._data[s], self._m[s], self._v[s] = data, m, v

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
        """Copy moment arrays into the arenas; a missing or off-shape entry raises ShapeError."""
        targets = {
            f"opt.{kind}.{name}": store[name]
            for name in self.params
            for kind, store in (("m", self.m), ("v", self.v))
        }
        missing = [key for key in targets if key not in arrays]
        if missing:
            raise ShapeError(f"state is missing {len(missing)} optimizer moment arrays, first '{missing[0]}'")
        for key, target in targets.items():
            if tuple(arrays[key].shape) != target.shape:
                raise ShapeError(
                    f"optimizer entry '{key}' has shape {target.shape}, state has {tuple(arrays[key].shape)}"
                )
        for key, target in targets.items():
            target[...] = arrays[key]
        self.t = t
