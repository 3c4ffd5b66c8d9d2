"""Forward semantics of the tensor ops: values, shapes, dtypes, errors."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import special

from cotrain import tensor as T
from cotrain.errors import ConfigError, ContractError, ShapeError
from cotrain.rng import Rng
from cotrain.tensor import Tensor


def t(data, **kw):
    return Tensor(np.asarray(data, dtype=np.float64), **kw)


class TestArithmetic:
    def test_add_broadcast(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([10.0, 20.0])
        npt.assert_array_equal((a + b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_scalar_operand_takes_tensor_dtype(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        assert (x + 1).dtype == np.float32
        assert (2.0 * x).dtype == np.float32
        assert (1.0 / x).dtype == np.float32

    def test_sub_rsub(self):
        x = t([1.0, 2.0])
        npt.assert_array_equal((10.0 - x).data, [9.0, 8.0])
        npt.assert_array_equal((x - 1.0).data, [0.0, 1.0])

    def test_div(self):
        npt.assert_allclose((t([1.0, 9.0]) / t([2.0, 3.0])).data, [0.5, 3.0])

    def test_pow_neg(self):
        npt.assert_array_equal((t([1.0, 2.0, 3.0]) ** 2).data, [1.0, 4.0, 9.0])
        npt.assert_array_equal((-t([1.0, -2.0])).data, [-1.0, 2.0])

    def test_int_input_becomes_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.arange(4)).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64


class TestElementwiseFunctions:
    def test_exp_log_roundtrip(self):
        x = t([0.1, 1.0, 2.5])
        npt.assert_allclose(T.log(T.exp(x)).data, x.data, rtol=1e-12)

    def test_sqrt(self):
        npt.assert_array_equal(T.sqrt(t([4.0, 9.0])).data, [2.0, 3.0])

    def test_relu(self):
        npt.assert_array_equal(T.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_gelu_values(self):
        # gelu(x) = x * Phi(x); Phi(0) = 1/2, Phi(1) ~ 0.841344746
        out = T.gelu(t([0.0, 1.0, -10.0, 10.0]))
        npt.assert_allclose(
            out.data, [0.0, 0.8413447460685429, 0.0, 10.0], rtol=1e-9, atol=1e-12
        )


class TestShapeOps:
    def test_reshape_roundtrip(self):
        x = t(np.arange(6.0))
        y = x.reshape(2, 3)
        assert y.shape == (2, 3)
        npt.assert_array_equal(y.reshape((6,)).data, x.data)

    def test_transpose(self):
        x = t(np.arange(24.0).reshape(2, 3, 4))
        y = x.transpose(2, 0, 1)
        assert y.shape == (4, 2, 3)
        npt.assert_array_equal(y.data, x.data.transpose(2, 0, 1))

    def test_gather_rows(self):
        x = t([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = T.gather_rows(x, np.array([2, 0, 2]))
        npt.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])

    def test_gather_rows_bad_index(self):
        x = t(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            T.gather_rows(x, np.array([0, 3]))
        with pytest.raises(ShapeError):
            T.gather_rows(x, np.array([[0, 1]]))


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = t(np.arange(6.0).reshape(2, 3))
        npt.assert_array_equal(x.sum().data, 15.0)
        npt.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_multi_axis(self):
        x = t(np.arange(24.0).reshape(2, 3, 4))
        npt.assert_allclose(x.mean(axis=(0, 2)).data, x.data.mean(axis=(0, 2)))

    def test_negative_axis(self):
        x = t(np.arange(6.0).reshape(2, 3))
        npt.assert_array_equal(x.sum(axis=-1).data, [3.0, 12.0])

    def test_reduction_errors(self):
        x = t(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            x.sum(axis=2)
        with pytest.raises(ShapeError):
            x.sum(axis=(0, 0))
        with pytest.raises(ShapeError):
            t(np.zeros((0, 3))).mean(axis=0)


class TestMatmul:
    def test_hand_value(self):
        a = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = t([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
        npt.assert_array_equal((a @ b).data, [[58.0, 64.0], [139.0, 154.0]])

    def test_batched_broadcast(self):
        a = t(np.ones((5, 2, 3)))
        b = t(np.ones((3, 4)))
        out = a @ b
        assert out.shape == (5, 2, 4)
        npt.assert_array_equal(out.data, np.full((5, 2, 4), 3.0))

    def test_shape_errors_name_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            t(np.zeros((2, 3))) @ t(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            t(np.zeros(3)) @ t(np.zeros((3, 2)))
        with pytest.raises(ContractError):
            t(np.zeros((2, 2))) @ np.zeros((2, 2))


class TestSoftmax:
    def test_uniform(self):
        npt.assert_allclose(T.softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_large_inputs_stable(self):
        out = T.softmax(t([1000.0, 1000.0]))
        npt.assert_allclose(out.data, [0.5, 0.5])
        ls = T.log_softmax(t([1000.0, 0.0]))
        assert np.isfinite(ls.data).all()
        npt.assert_allclose(ls.data[0], 0.0, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = t([[0.3, -1.2, 2.0], [0.0, 0.0, 0.0]])
        npt.assert_allclose(
            T.log_softmax(x, axis=-1).data,
            np.log(T.softmax(x, axis=-1).data),
            rtol=1e-12,
        )

    def test_rows_sum_to_one(self):
        x = t(np.linspace(-3, 3, 12).reshape(3, 4))
        npt.assert_allclose(T.softmax(x, axis=-1).data.sum(axis=-1), np.ones(3))


class TestLayerNorm:
    def test_constant_input_normalizes_to_zero(self):
        x = t([1.0, 1.0, 1.0]).reshape(1, 3)
        out = T.layer_norm(x, t(np.ones(3)), t(np.zeros(3)))
        npt.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-6)

    def test_hand_value(self):
        # x = [1, 2, 3]: mean 2, population var 2/3
        x = t([[1.0, 2.0, 3.0]])
        out = T.layer_norm(x, t(np.full(3, 2.0)), t(np.ones(3)), eps=0.0)
        xhat = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
        npt.assert_allclose(out.data[0], 2.0 * xhat + 1.0, rtol=1e-12)

    def test_shape_validation(self):
        x = t(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            T.layer_norm(x, t(np.ones(3)), t(np.zeros(4)))


class TestCountOps:
    def test_matmul_flops(self):
        a = t(np.ones((4, 5)))
        b = t(np.ones((5, 6)))
        with T.count_ops() as counter:
            a @ b
        assert counter.ops == {"matmul": 1}
        assert counter.flops == 2 * 4 * 6 * 5

    def test_counter_nests_and_restores(self):
        x = t([1.0])
        with T.count_ops() as outer:
            x + x
            with T.count_ops() as inner:
                x * x
            x + x
        assert inner.ops == {"mul": 1}
        assert outer.ops == {"add": 2}
        # no counter active outside the blocks
        x + x
        assert outer.ops == {"add": 2}


# -- bitwise pins -------------------------------------------------------------
# Each op's float32 output and gradients must equal, bit for bit, the plain
# formula below (one numpy expression per step, no buffer reuse).  The ops
# compute the same values with fewer temporaries; trained parameters depend on
# every bit, so any reordering of the float arithmetic shows up here first.


def plain_softmax(x, g, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    inner = (g * y).sum(axis=axis, keepdims=True)
    return y, ((g - inner) * y,)


def plain_layer_norm(x, gamma, beta, g, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    y = gamma * xhat + beta
    lead = tuple(range(x.ndim - 1))
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return y, ((dxhat - m1 - xhat * m2) * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead))


def plain_gelu(x, g):
    cdf = 0.5 * (1.0 + special.erf(x / np.sqrt(2.0, dtype=x.dtype)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi, dtype=x.dtype)
    return x * cdf, (g * (cdf + x * pdf),)


def _taped(op, arrays, g):
    """Output and input gradients of ``op`` with upstream gradient exactly ``g``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    (out * Tensor(g)).sum().backward()
    return out.data, tuple(leaf.grad for leaf in leaves)


def _f32(rng, shape, scale=1.0):
    return (scale * rng.normal(shape)).astype(np.float32)


class TestBitwisePins:
    def test_softmax(self):
        rng = Rng(31, 0)
        x, g = _f32(rng, (4, 2, 16, 9), 3.0), _f32(rng, (4, 2, 16, 9))
        out, (gx,) = _taped(T.softmax, [x], g)
        ref, (ref_gx,) = plain_softmax(x, g)
        assert out.dtype == gx.dtype == np.float32
        npt.assert_array_equal(out, ref)
        npt.assert_array_equal(gx, ref_gx)

    def test_layer_norm(self):
        rng = Rng(31, 1)
        x, g = _f32(rng, (8, 64, 16), 2.0) + np.float32(0.5), _f32(rng, (8, 64, 16))
        gamma, beta = 1.0 + _f32(rng, (16,), 0.1), _f32(rng, (16,), 0.1)
        out, grads = _taped(T.layer_norm, [x, gamma, beta], g)
        ref, ref_grads = plain_layer_norm(x, gamma, beta, g)
        assert out.dtype == np.float32
        npt.assert_array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            assert got.dtype == np.float32
            npt.assert_array_equal(got, want)

    def test_gelu(self):
        rng = Rng(31, 2)
        x, g = _f32(rng, (8, 64, 32), 2.0), _f32(rng, (8, 64, 32))
        out, (gx,) = _taped(T.gelu, [x], g)
        ref, (ref_gx,) = plain_gelu(x, g)
        assert out.dtype == gx.dtype == np.float32
        npt.assert_array_equal(out, ref)
        npt.assert_array_equal(gx, ref_gx)
