"""Dense float tensors with reverse-mode automatic differentiation.

The graph is taped implicitly: every operation records its parent tensors and
a backward rule on its output.  ``Tensor.backward`` runs a single reverse
topological sweep, accumulates gradients into every tensor that requires them,
and then retires the tape, so each training step builds a fresh graph.  There
is no higher-order differentiation.

Data lives in row-major numpy arrays, float32 by default; gradient checks use
float64 throughout.  All computation is single-threaded numpy, which keeps
runs bit-reproducible.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy import special as _special

from .errors import ConfigError, ContractError, GraphError, ShapeError

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


def is_grad_enabled() -> bool:
    return _grad_enabled


class no_grad:
    """Context manager that disables graph construction."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class OpCounter:
    """Tallies forward operations and an approximate flop count."""

    def __init__(self):
        self.ops: dict[str, int] = {}
        self.flops: int = 0

    def add(self, name: str, flops: int) -> None:
        self.ops[name] = self.ops.get(name, 0) + 1
        self.flops += int(flops)


_counter: Optional[OpCounter] = None


class count_ops:
    """Installs an :class:`OpCounter` for the duration of the block."""

    def __enter__(self) -> OpCounter:
        global _counter
        self._prev = _counter
        _counter = OpCounter()
        return _counter

    def __exit__(self, *exc):
        global _counter
        _counter = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_swept")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None
        self._swept = False

    # -- basic introspection ------------------------------------------------

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
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def relu(self):
        return relu(self)

    # -- reverse sweep ------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar and retire the tape.

        Gradients accumulate into ``.grad`` of every reachable tensor with
        ``requires_grad``.  A second call on the same output raises
        :class:`GraphError`; build a new forward graph instead.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward on a tensor that does not require grad")
        if self._swept:
            raise GraphError("tape already consumed; run a new forward pass before backward")

        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            fn = node._backward_fn
            if fn is None:
                continue
            grads = fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if g.dtype != parent.data.dtype:
                    g = g.astype(parent.data.dtype)
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            node._backward_fn = None
            node._parents = ()
            node._swept = True
        self._swept = True


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over grad-requiring ancestors (parents first)."""
    order: list[Tensor] = []
    state: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node))
        if st is None:
            if node is not root and node._swept:
                raise GraphError(
                    "graph shares nodes with an already-consumed tape; rebuild the forward pass"
                )
            state[id(node)] = 0
            for p in node._parents:
                if p.requires_grad and state.get(id(p)) is None:
                    stack.append(p)
        elif st == 0:
            stack.pop()
            state[id(node)] = 1
            order.append(node)
        else:
            stack.pop()
    return order


# -- op plumbing -------------------------------------------------------------


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float)):
        return Tensor(np.asarray(value, dtype=dtype))
    return Tensor(np.asarray(value))


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], backward, name: str, flops: int = 0) -> Tensor:
    if _counter is not None:
        _counter.add(name, flops)
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward_fn = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along the axes numpy broadcasting added."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", DEFAULT_DTYPE))
    b = _coerce(b, a.dtype)
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(data, (a, b), backward, "add", data.size)


def sub(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", DEFAULT_DTYPE))
    b = _coerce(b, a.dtype)
    data = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _from_op(data, (a, b), backward, "sub", data.size)


def mul(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", DEFAULT_DTYPE))
    b = _coerce(b, a.dtype)
    data = a.data * b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g * b_data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a_data, b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), backward, "mul", data.size)


def div(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", DEFAULT_DTYPE))
    b = _coerce(b, a.dtype)
    data = a.data / b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g / b_data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a_data / (b_data * b_data), b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), backward, "div", data.size)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _from_op(-a.data, (a,), backward, "neg", a.size)


def power(a: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    data = a.data ** p
    a_data = a.data

    def backward(g):
        return (g * p * a_data ** (p - 1.0),)

    return _from_op(data, (a,), backward, "pow", a.size)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _from_op(data, (a,), backward, "exp", a.size)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    a_data = a.data

    def backward(g):
        return (g / a_data,)

    return _from_op(data, (a,), backward, "log", a.size)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        return (g * (0.5 / data),)

    return _from_op(data, (a,), backward, "sqrt", a.size)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _from_op(data, (a,), backward, "relu", a.size)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, ``x * Phi(x)`` with the erf form."""
    x = a.data
    # cdf = 0.5 * (1 + erf(x / sqrt 2)), built in one buffer.
    cdf = x / np.sqrt(2.0, dtype=x.dtype)
    _special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def backward(g):
        # g * (cdf + x * pdf) with pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer.
        d = -0.5 * x
        d *= x
        np.exp(d, out=d)
        d /= np.sqrt(2.0 * np.pi, dtype=x.dtype)
        d *= x
        d += cdf
        d *= g
        return (d,)

    return _from_op(data, (a,), backward, "gelu", 8 * a.size)


# -- shape ops ----------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    old_shape = a.shape

    def backward(g):
        return (g.reshape(old_shape),)

    return _from_op(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _from_op(data, (a,), backward, "transpose")


def gather_rows(a: Tensor, index) -> Tensor:
    """Select rows along axis 0; repeated indices accumulate gradient."""
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a 1-d index, got shape {idx.shape}")
    if a.ndim < 1:
        raise ShapeError("gather_rows needs at least a 1-d operand")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(
            f"gather_rows index out of range for leading extent {a.shape[0]}"
        )
    data = a.data[idx]
    in_shape = a.shape

    def backward(g):
        out = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)

    return _from_op(data, (a,), backward, "gather_rows", data.size)


# -- reductions ---------------------------------------------------------------


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(int(ax) % ndim if -ndim <= int(ax) < ndim else int(ax) for ax in axis)
    for ax in axes:
        if ax < 0 or ax >= ndim:
            raise ShapeError(f"reduction axis {ax} out of range for {ndim}-d tensor")
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return axes


def _reduction_setup(a: Tensor, axis):
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        extent = a.shape[ax]
        if extent == 0:
            raise ShapeError(f"cannot reduce over empty axis {ax} in shape {a.shape}")
        count *= extent
    return axes, count


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes, _ = _reduction_setup(a, axis)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    in_shape = a.shape

    def backward(g):
        full = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(full, in_shape).copy(),)

    return _from_op(data, (a,), backward, "sum", a.size)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes, count = _reduction_setup(a, axis)
    data = a.data.mean(axis=axes, keepdims=keepdims)
    in_shape = a.shape

    def backward(g):
        full = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(full / count, in_shape).astype(g.dtype),)

    return _from_op(data, (a,), backward, "mean", a.size)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ContractError("matmul operands must be tensors")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"matmul batch dims do not broadcast: {a.shape} @ {b.shape}") from err
    a_data, b_data = a.data, b.data
    flops = 2 * data.size * a.shape[-1]

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b.shape)
        return ga, gb

    return _from_op(data, (a, b), backward, "matmul", flops)


# -- neural-net primitives ----------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        ga = g - inner
        ga *= data
        return (ga,)

    return _from_op(data, (a,), backward, "softmax", 5 * a.size)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        return (g - np.exp(data) * g.sum(axis=axis, keepdims=True),)

    return _from_op(data, (a,), backward, "log_softmax", 5 * a.size)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale and shift."""
    d = a.shape[-1] if a.ndim else 0
    if d == 0:
        raise ShapeError(f"layer_norm over an empty last axis, shape {a.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm scale/shift must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    # One mean and one centring; the variance divides as ``ndarray.var`` does,
    # so the bits equal ``a.data.var(axis=-1)``.
    xhat = a.data - a.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    np.true_divide(var, np.intp(d), out=var, casting="unsafe")
    var += eps
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    data = gamma.data * xhat
    data += beta.data
    gamma_data = gamma.data
    lead = tuple(range(a.ndim - 1))

    def backward(g):
        ga = dgamma = dbeta = None
        if gamma.requires_grad:
            dgamma = (g * xhat).sum(axis=lead)
        if beta.requires_grad:
            dbeta = g.sum(axis=lead)
        if a.requires_grad:
            dxhat = g * gamma_data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            ga = (dxhat - m1 - xhat * m2) * inv
        return ga, dgamma, dbeta

    return _from_op(data, (a, gamma, beta), backward, "layer_norm", 8 * a.size)


def conv3d(
    x: Tensor,
    kernel: Tensor,
    stride: tuple[int, int, int] = (1, 1, 1),
    padding: tuple[int, int, int] = (0, 0, 0),
) -> Tensor:
    """3-d convolution over ``(B, T, H, W, C_in)`` with kernel ``(kt, kh, kw, C_in, C_out)``.

    When kernel == stride, padding is 0 and the windows tile the input exactly
    (the patch embed and every pool conv), im2col and its inverse are a reshape
    and a transpose of ``x`` around one GEMM each way; other shapes take the
    general sliding-window path.
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d input must be 5-d (B,T,H,W,C), got {x.shape}")
    if kernel.ndim != 5:
        raise ShapeError(f"conv3d kernel must be 5-d (kt,kh,kw,Cin,Cout), got {kernel.shape}")
    kt, kh, kw, cin, cout = kernel.shape
    if x.shape[-1] != cin:
        raise ShapeError(
            f"conv3d channel mismatch: input {x.shape} vs kernel {kernel.shape}"
        )
    st, sh, sw = stride
    pt, ph, pw = padding
    if min(st, sh, sw) < 1:
        raise ConfigError(f"conv3d stride must be >= 1, got {stride}")
    if min(pt, ph, pw) < 0:
        raise ConfigError(f"conv3d padding must be >= 0, got {padding}")
    b, t, h, w, _ = x.shape
    tp, hp, wp = t + 2 * pt, h + 2 * ph, w + 2 * pw
    if kt > tp or kh > hp or kw > wp:
        raise ConfigError(
            f"conv3d kernel {kernel.shape[:3]} larger than padded input ({tp},{hp},{wp})"
        )
    to = (tp - kt) // st + 1
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1

    k_mat = kernel.data.reshape(kt * kh * kw * cin, cout)
    m = b * to * ho * wo
    tiled = (kt, kh, kw) == (st, sh, sw) and not (pt or ph or pw) and (to * kt, ho * kh, wo * kw) == (t, h, w)
    if tiled:
        # Windows tile the input: im2col is a reshape + transpose of x (a view at unit stride).
        tiles = x.data.reshape(b, to, kt, ho, kh, wo, kw, cin).transpose(0, 1, 3, 5, 2, 4, 6, 7)
        win_mat = np.ascontiguousarray(tiles.reshape(m, kt * kh * kw * cin))
    else:
        xp = np.pad(x.data, ((0, 0), (pt, pt), (ph, ph), (pw, pw), (0, 0))) if pt or ph or pw else x.data
        win = np.lib.stride_tricks.sliding_window_view(xp, (kt, kh, kw), axis=(1, 2, 3))
        win = win[:, ::st, ::sh, ::sw]  # (B, to, ho, wo, Cin, kt, kh, kw)
        win = np.ascontiguousarray(win.transpose(0, 1, 2, 3, 5, 6, 7, 4))
        win_mat = win.reshape(m, kt * kh * kw * cin)
    data = (win_mat @ k_mat).reshape(b, to, ho, wo, cout)
    flops = 2 * data.size * kt * kh * kw * cin
    k_data = kernel.data

    def backward(g):
        gx = gk = None
        g_mat = g.reshape(m, cout)
        if kernel.requires_grad:
            gk = (win_mat.T @ g_mat).reshape(kt, kh, kw, cin, cout)
        if x.requires_grad and tiled:
            # Each input element sits in exactly one window: col2im is the inverse transpose.
            gx = (g_mat @ k_mat.T).reshape(b, to, ho, wo, kt, kh, kw, cin)
            gx = gx.transpose(0, 1, 4, 2, 5, 3, 6, 7).reshape(b, t, h, w, cin)
        elif x.requires_grad:
            gxp = np.zeros((b, tp, hp, wp, cin), dtype=g.dtype)
            for i in range(kt):
                for j in range(kh):
                    for l in range(kw):
                        contrib = g @ k_data[i, j, l].T  # (B,to,ho,wo,Cin)
                        gxp[
                            :,
                            i : i + st * to : st,
                            j : j + sh * ho : sh,
                            l : l + sw * wo : sw,
                        ] += contrib
            gx = gxp[:, pt : pt + t, ph : ph + h, pw : pw + w, :]
            if pt or ph or pw:
                gx = np.ascontiguousarray(gx)
        return gx, gk

    return _from_op(data, (x, kernel), backward, "conv3d", flops)
