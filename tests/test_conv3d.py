"""conv3d against a brute-force window-by-window oracle."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from cotrain import tensor as T
from cotrain.errors import ConfigError, ShapeError
from cotrain.gradcheck import finite_diff_check
from cotrain.rng import Rng
from cotrain.tensor import Tensor


def conv3d_oracle(x, kernel):
    """Direct loop evaluation of the conv3d contract (stride = kernel extent); slow but obviously right."""
    b, t, h, w, cin = x.shape
    kt, kh, kw, _, cout = kernel.shape
    to, ho, wo = t // kt, h // kh, w // kw
    out = np.zeros((b, to, ho, wo, cout), dtype=x.dtype)
    for bi, ti, hi, wi in itertools.product(range(b), range(to), range(ho), range(wo)):
        window = x[bi, ti * kt : (ti + 1) * kt, hi * kh : (hi + 1) * kh, wi * kw : (wi + 1) * kw, :]
        for co in range(cout):
            out[bi, ti, hi, wi, co] = (window * kernel[..., co]).sum()
    return out


CASES = [
    # (input shape, kernel shape); the kernel tiles the input
    ((1, 4, 4, 4, 1), (2, 2, 2, 1, 3)),
    ((2, 6, 9, 6, 3), (3, 3, 3, 3, 4)),
    ((2, 4, 6, 6, 2), (2, 3, 2, 2, 3)),
    ((1, 8, 16, 16, 1), (2, 4, 4, 1, 16)),  # patch-embed shape
    ((3, 4, 5, 5, 2), (1, 1, 1, 2, 2)),
    ((1, 3, 3, 3, 1), (3, 3, 3, 1, 2)),  # one window covers the input
]


@pytest.mark.parametrize("x_shape,k_shape", CASES)
def test_forward_matches_oracle(x_shape, k_shape):
    rng = Rng(7, hash(x_shape) & 0xFFFF)
    x = rng.normal(x_shape).astype(np.float64)
    k = rng.normal(k_shape).astype(np.float64)
    out = T.conv3d(Tensor(x), Tensor(k))
    npt.assert_allclose(out.data, conv3d_oracle(x, k), rtol=1e-12, atol=1e-12)


def test_pointwise_kernel_is_matmul():
    rng = Rng(11, 0)
    x = rng.normal((2, 3, 4, 4, 3)).astype(np.float64)
    k = rng.normal((1, 1, 1, 3, 5)).astype(np.float64)
    out = T.conv3d(Tensor(x), Tensor(k)).data
    npt.assert_allclose(out, x @ k[0, 0, 0], rtol=1e-12)


def test_pointwise_input_gradient():
    # out = x @ K, so dL/dx = g @ K^T with g = ones
    rng = Rng(11, 1)
    x = Tensor(rng.normal((1, 2, 2, 2, 3)).astype(np.float64), requires_grad=True)
    k = Tensor(rng.normal((1, 1, 1, 3, 4)).astype(np.float64))
    T.conv3d(x, k).sum().backward()
    expected = np.broadcast_to(k.data[0, 0, 0].sum(axis=-1), x.shape)
    npt.assert_allclose(x.grad, expected, rtol=1e-12)


def test_flop_accounting():
    x = Tensor(np.ones((1, 4, 4, 4, 2)))
    k = Tensor(np.ones((2, 2, 2, 2, 3)))
    with T.count_ops() as counter:
        out = T.conv3d(x, k)
    assert counter.flops == 2 * out.size * 2 * 2 * 2 * 2


class TestValidation:
    def test_input_rank(self):
        with pytest.raises(ShapeError):
            T.conv3d(Tensor(np.zeros((4, 4, 4, 1))), Tensor(np.zeros((1, 1, 1, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv3d(Tensor(np.zeros((1, 4, 4, 4, 2))), Tensor(np.zeros((1, 1, 1, 3, 1))))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ConfigError):
            T.conv3d(Tensor(np.zeros((1, 2, 2, 2, 1))), Tensor(np.zeros((3, 1, 1, 1, 1))))

    def test_kernel_must_tile_input(self):
        with pytest.raises(ConfigError, match="does not tile"):
            T.conv3d(Tensor(np.zeros((1, 4, 6, 4, 1))), Tensor(np.zeros((2, 4, 2, 1, 1))))


# The shapes the model uses (patch embed, strided pool conv, unit-stride pool conv).
TILED_CASES = [
    ((2, 4, 8, 8, 1), (2, 4, 4, 1, 3)),
    ((2, 4, 4, 6, 3), (2, 2, 2, 3, 4)),
    ((2, 3, 4, 4, 3), (1, 1, 1, 3, 3)),
]


@pytest.mark.parametrize("x_shape,k_shape", TILED_CASES)
def test_tiled_forward_matches_oracle(x_shape, k_shape):
    rng = Rng(17, hash(k_shape) & 0xFFFF)
    x = rng.normal(x_shape)
    k = rng.normal(k_shape)
    out = T.conv3d(Tensor(x), Tensor(k))
    npt.assert_allclose(out.data, conv3d_oracle(x, k), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x_shape,k_shape", TILED_CASES)
def test_tiled_gradients_match_finite_differences(x_shape, k_shape):
    rng = Rng(19, hash(k_shape) & 0xFFFF)
    x0 = rng.normal(x_shape)
    k0 = rng.normal(k_shape)
    out_shape = (x_shape[0], *(n // s for n, s in zip(x_shape[1:4], k_shape[:3])), k_shape[-1])
    mask = Tensor(rng.normal(out_shape))
    # The other operand also requires grad, so both backward branches run.
    k = Tensor(k0, requires_grad=True)
    assert finite_diff_check(lambda v: (T.conv3d(v, k) * mask).sum(), Tensor(x0)) < 1e-8
    x = Tensor(x0, requires_grad=True)
    assert finite_diff_check(lambda v: (T.conv3d(x, v) * mask).sum(), Tensor(k0)) < 1e-8


def general_conv3d(x, k, stride):
    """The sliding-window im2col and scatter col2im conv3d (no padding), frozen.

    Returns the output and a function from the output gradient to the
    gradients of ``x`` and ``k``.
    """
    kt, kh, kw, cin, cout = k.shape
    st, sh, sw = stride
    b, t, h, w, _ = x.shape
    to, ho, wo = (t - kt) // st + 1, (h - kh) // sh + 1, (w - kw) // sw + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kt, kh, kw), axis=(1, 2, 3))
    win = np.ascontiguousarray(win[:, ::st, ::sh, ::sw].transpose(0, 1, 2, 3, 5, 6, 7, 4))
    win_mat = win.reshape(b * to * ho * wo, kt * kh * kw * cin)
    out = (win_mat @ k.reshape(kt * kh * kw * cin, cout)).reshape(b, to, ho, wo, cout)

    def grads(g):
        gk = (win_mat.T @ g.reshape(-1, cout)).reshape(k.shape)
        gx = np.zeros(x.shape, dtype=g.dtype)
        for i, j, l in itertools.product(range(kt), range(kh), range(kw)):
            gx[:, i : i + st * to : st, j : j + sh * ho : sh, l : l + sw * wo : sw] += g @ k[i, j, l].T
        return gx, gk

    return out, grads


@pytest.mark.parametrize(
    "x_shape,k_shape,pin_gx",
    [
        # The patch embed's input is the clip, which never requires grad; with
        # one input channel the general path's x-gradient is a matrix-vector
        # product per offset, so only the output and kernel gradient are pinned.
        ((4, 8, 16, 16, 1), (2, 4, 4, 1, 16), False),
        # Pool convs at the model's head widths (8 and 16 channels).  The
        # x-gradient sums over C_out; one large GEMM and numpy's batched small
        # ones round that sum alike for these widths on OpenBLAS 0.3.31
        # (Haswell kernels), but not from 32 channels up.
        ((4, 4, 4, 4, 8), (2, 2, 2, 8, 8), True),
        ((4, 4, 4, 4, 8), (1, 1, 1, 8, 8), True),
        ((4, 2, 2, 2, 8), (1, 1, 1, 8, 8), True),
        ((4, 4, 8, 8, 16), (2, 2, 2, 16, 16), True),
        ((4, 2, 4, 4, 16), (1, 1, 1, 16, 16), True),
    ],
)
def test_tiled_path_is_bitwise_the_general_path(x_shape, k_shape, pin_gx):
    rng = Rng(23, hash(k_shape) & 0xFFFF)
    x = rng.normal(x_shape).astype(np.float32)
    k = (0.2 * rng.normal(k_shape)).astype(np.float32)
    g = rng.normal((x_shape[0], *(n // s for n, s in zip(x_shape[1:4], k_shape[:3])), k_shape[-1]))
    g = g.astype(np.float32)
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    out = T.conv3d(xt, kt)
    (out * Tensor(g)).sum().backward()
    ref, ref_grads = general_conv3d(x, k, k_shape[:3])
    ref_gx, ref_gk = ref_grads(g)
    assert out.dtype == np.float32
    npt.assert_array_equal(out.data, ref)
    npt.assert_array_equal(kt.grad, ref_gk)
    if pin_gx:
        npt.assert_array_equal(xt.grad, ref_gx)
