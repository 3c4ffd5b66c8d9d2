"""Forward semantics of the tensor ops: values, shapes, dtypes, errors."""

import multiprocessing
import os
import sys
import threading
import weakref
import zlib

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


# -- the worker pool ----------------------------------------------------------
# Large ops split their kernels into blocks of leading-axis rows across a
# thread pool.  Every output and gradient must be bitwise identical with the
# pool on and off, for any worker count, and must keep the layout numpy gives.


@pytest.fixture(scope="module", autouse=True)
def _restore_pool():
    yield
    T._forget_pool()  # the next large op starts a pool sized by the affinity mask


def _rows_over_split(lead, inner):
    """Rows per leading index so that ``(lead, rows, inner)`` holds at least SPLIT_SIZE elements."""
    return -(-T.SPLIT_SIZE // (lead * inner)) + 1


def _split_cases(lead):
    """``name -> (op, shapes)``, every op's largest array above SPLIT_SIZE."""
    m = _rows_over_split(lead, 64)
    s = int(np.ceil(np.sqrt(T.SPLIT_SIZE / (lead * 2))))  # attention scores (lead, 2, s, s)
    hw = 2 * int(np.ceil(np.sqrt(T.SPLIT_SIZE / (lead * 4 * 8)) / 2))  # (lead, 4, hw, hw, 8)
    hw_patch = 4 * int(np.ceil(np.sqrt(T.SPLIT_SIZE / (lead * 2 * 3)) / 4))  # (lead, 2, hw_patch, hw_patch, 3)
    return {
        "gelu": (T.gelu, [(lead, m, 64)]),
        "softmax": (lambda x: T.softmax(x, axis=-1), [(lead, m, 64)]),
        "softmax_axis0": (lambda x: T.softmax(x, axis=0), [(lead, m, 64)]),
        "log_softmax_axis1": (lambda x: T.log_softmax(x, axis=1), [(lead, m, 64)]),
        "layer_norm": (T.layer_norm, [(lead, m, 64), (64,), (64,)]),
        "matmul_weight": (T.matmul, [(lead, m, 64), (64, 32)]),
        "matmul_batched": (T.matmul, [(lead, 2, s, 16), (lead, 2, 16, s)]),
        "matmul_broadcast_batch": (T.matmul, [(1, m, 64), (lead, 64, 32)]),
        "add_bias": (T.add, [(lead, m, 64), (64,)]),
        "sub_broadcast_lead": (T.sub, [(lead, m, 64), (1, m, 64)]),
        "mul": (T.mul, [(lead, m, 64), (lead, m, 64)]),
        "div": (lambda x, y: x / (y * y + 1.0), [(lead, m, 64), (lead, m, 64)]),
        "reused_input": (lambda x: x * x + x, [(lead, m, 64)]),
        "conv3d_tiled": (T.conv3d, [(lead, 4, hw, hw, 8), (2, 2, 2, 8, 8)]),
        "conv3d_patch_embed": (T.conv3d, [(lead, 2, hw_patch, hw_patch, 3), (2, 4, 4, 3, 8)]),
    }


def _forward_and_grads(op, arrays, mixed=False):
    """The output of ``op`` and the gradient of every input under a fixed upstream weight.

    With ``mixed`` the output's own backward rule also gets a float64
    gradient directly, as the tape never hands one to a float32 node, and
    its results are returned too.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    rule = out._node.rule
    weight = np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape)
    (out * Tensor(weight.astype(out.dtype))).sum().backward()
    direct = [g for g in rule(weight) if g is not None] if mixed else []
    return [out.data] + [leaf.grad for leaf in leaves] + direct


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("dtype", ["float32", "float64", "mixed"])
@pytest.mark.parametrize("lead", [1, 2, 3, 17])
@pytest.mark.parametrize("case", sorted(_split_cases(1)))
def test_split_ops_are_bitwise_equal_to_unsplit(case, lead, dtype, workers, monkeypatch, use_pool):
    """``mixed``: the first input float32, the others and the upstream gradient float64."""
    use_pool(workers)
    op, shapes = _split_cases(lead)[case]
    rng = np.random.default_rng(zlib.crc32(f"{case}-{lead}".encode()))
    dtypes = [np.float32] + [np.float64] * (len(shapes) - 1) if dtype == "mixed" else [dtype] * len(shapes)
    arrays = [(rng.standard_normal(shape) * 2.0).astype(dt) for shape, dt in zip(shapes, dtypes)]
    splits = []
    real_split = T._split

    def counting_split(chunk, rows, like):
        splits.append(rows)
        return real_split(chunk, rows, like)

    monkeypatch.setattr(T, "_split", counting_split)
    split = _forward_and_grads(op, arrays, dtype == "mixed")
    with monkeypatch.context() as m:
        m.setattr(T, "SPLIT_SIZE", 1 << 62)
        whole = _forward_and_grads(op, arrays, dtype == "mixed")
    if lead > 1:
        assert splits, "no op reached the pool"
    assert len(split) == len(whole)
    for got, want in zip(split, whole):
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(got, want)


def test_layer_norm_input_gradient_takes_the_dtype_of_its_expression(use_pool):
    """float64 data under a float32 scale and gradient: the input gradient is float64 split or not."""
    use_pool(2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, _rows_over_split(4, 64), 64))
    gamma, beta = (1.0 + rng.standard_normal((2, 64)) / 10).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)

    def input_gradient():
        out = T.layer_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta))
        return out._node.rule(g)[0]

    split = input_gradient()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "SPLIT_SIZE", 1 << 62)
        whole = input_gradient()
    assert split.dtype == whole.dtype == np.float64
    assert np.array_equal(split, whole)


def test_pool_runs_at_most_max_workers(monkeypatch):
    """A wide affinity mask still gets MAX_WORKERS threads: no larger count was measured."""
    T._forget_pool()
    monkeypatch.setattr(T, "_cpu_count", lambda: 64)
    assert T._pool_workers() == T.MAX_WORKERS
    monkeypatch.setattr(T, "_cpu_count", lambda: 1)
    T._forget_pool()
    assert T._pool_workers() == 1 and T._tasks is None


def test_noncontiguous_operands_keep_numpy_layout(use_pool):
    """Row kernels split only C-contiguous arrays; others run whole, in numpy's layout.

    With a transposed upstream gradient, layer_norm's input gradient once came
    out in a different memory order than the whole-array expression gives it,
    and that changed the summation order of a later bias gradient.
    """
    use_pool(2)
    rng = np.random.default_rng(7)
    n = _rows_over_split(8, 64)
    x = rng.standard_normal((8, 64, n)).astype(np.float32).transpose(0, 2, 1)  # (8, n, 64)
    g = rng.standard_normal((8, 64, n)).astype(np.float32).transpose(0, 2, 1)
    gamma, beta = np.ones(64, np.float32), np.zeros(64, np.float32)
    for op, arrays in (
        (T.layer_norm, [x, gamma, beta]),
        (lambda t: T.softmax(t, axis=-1), [x]),
        (T.gelu, [x]),
        (T.matmul, [x, rng.standard_normal((64, 64)).astype(np.float32)]),
    ):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(T, "SPLIT_SIZE", 1 << 62)
            whole = _taped(op, arrays, g)
        split = _taped(op, arrays, g)
        for got, want in zip((split[0], *split[1]), (whole[0], *whole[1])):
            assert got.strides == want.strides
            assert np.array_equal(got, want)


def test_concurrent_callers_share_the_pool(use_pool):
    """Callers on several threads split ops on one pool of more workers than cores.

    Each split hands out its blocks through a shared counter and collects them
    through a queue.  A lost block would leave rows of an output uninitialised
    and a block handed to the wrong call would write another op's rows, so
    every result is compared with the unsplit one.
    """
    use_pool(4)
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal((17, _rows_over_split(17, 64), 64)).astype(np.float32) for _ in range(3)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "SPLIT_SIZE", 1 << 62)
        expected = [T.softmax(T.gelu(Tensor(x))).data for x in inputs]
    failures = []

    def work(i):
        for _ in range(5):
            if not np.array_equal(T.softmax(T.gelu(Tensor(inputs[i]))).data, expected[i]):
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i % 3,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def test_large_op_in_forked_child_after_parent_used_pool(use_pool):
    """A forked child starts its own pool; the parent's helper threads do not exist there.

    The parent's pool has 3 workers whatever the CPU count, so a child that
    kept it instead of sizing a new one from its affinity mask fails.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    use_pool(3)
    x = Tensor(np.linspace(-3.0, 3.0, 4 * T.SPLIT_SIZE).reshape(16, -1))
    expected = T.gelu(x).data
    assert T._tasks is not None  # the parent's pool is running
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_gelu_matches_in_child, args=(x.data, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child did not finish a split op within 60 s")
    assert child.exitcode == 0


def _gelu_matches_in_child(data, expected):
    workers = min(T._cpu_count(), T.MAX_WORKERS)
    ok = np.array_equal(T.gelu(Tensor(data)).data, expected) and T._workers == workers
    os._exit(0 if ok else 1)


# -- whole items on the pool ----------------------------------------------------
# ``map_items`` spreads independent items across the same pool; every op inside
# an item runs whole, so the results are those of a serial loop.


class _HelperError(Exception):
    pass


def _items_on_two_threads(fn):
    """``fn`` wrapped so that the caller's first item waits until a helper has started one.

    Without the wait a fast caller can run every item before a helper wakes.
    """
    helper_started = threading.Event()
    main = threading.get_ident()

    def wrapped(item):
        if threading.get_ident() == main:
            assert helper_started.wait(timeout=30), "no helper claimed an item"
        else:
            helper_started.set()
        return fn(item)

    return wrapped


def _large_chain(x):
    return T.softmax(T.gelu(Tensor(x))).data


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_map_items_matches_a_serial_loop(count, workers, use_pool):
    use_pool(workers)
    rng = np.random.default_rng(count)
    items = [rng.standard_normal((4, _rows_over_split(4, 64), 64)).astype(np.float32) for _ in range(count)]
    expected = [_large_chain(x) for x in items]
    got = T.map_items(_large_chain, items)
    assert len(got) == count
    for g, e in zip(got, expected):
        assert g.strides == e.strides and np.array_equal(g, e)
    assert not T._inline.on


@pytest.mark.parametrize("workers", [2, 3])
def test_helper_error_reaches_the_caller_and_the_pool_still_works(workers, use_pool):
    use_pool(workers)
    main = threading.get_ident()

    def fail_on_helper(i):
        if threading.get_ident() != main:
            raise _HelperError(f"item {i}")
        return i

    with pytest.raises(_HelperError):
        T.map_items(_items_on_two_threads(fail_on_helper), [0, 1])
    assert not T._inline.on
    assert T.map_items(_items_on_two_threads(lambda i: i * i), list(range(6))) == [0, 1, 4, 9, 16, 25]
    x = np.linspace(-3.0, 3.0, 4 * T.SPLIT_SIZE, dtype=np.float32).reshape(16, -1)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "SPLIT_SIZE", 1 << 62)
        whole = T.gelu(Tensor(x)).data
    assert np.array_equal(T.gelu(Tensor(x)).data, whole)  # ops still split on the pool


def test_a_drain_left_queued_keeps_no_work_alive(use_pool):
    """The caller does not wait for a helper that has not woken; that helper's
    queued drain must not keep the finished work's arrays alive until it does."""
    use_pool(2)
    gate = threading.Event()
    T._tasks.put(gate.wait)  # the helper blocks here, so the caller runs every index
    try:
        ran = []
        payload = np.zeros(4)
        gone = weakref.ref(payload)
        T._spread(lambda i, captured=payload: ran.append(i), 2)
        del payload
        assert ran == [0, 1]
        assert gone() is None
    finally:
        gate.set()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_item_runs_large_ops_and_nested_items_inline(workers, use_pool, monkeypatch):
    """Work is queued once, for the items: neither a large op nor a nested call inside one queues more."""
    use_pool(workers)
    spreads = []
    real_spread = T._spread

    def counting_spread(work, n):
        spreads.append(n)
        return real_spread(work, n)

    monkeypatch.setattr(T, "_spread", counting_spread)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, _rows_over_split(4, 64), 64)).astype(np.float32)
    flags = []

    def item(i):
        flags.append(T._inline.on)
        return _large_chain(x), T.map_items(lambda j: _large_chain(x[j]), [0, 1])

    results = T.map_items(_items_on_two_threads(item), [0, 1, 2])
    assert spreads == [3]
    assert flags == [True, True, True]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "SPLIT_SIZE", 1 << 62)
        whole = _large_chain(x)
        nested = [_large_chain(x[0]), _large_chain(x[1])]
    for chain, inner in results:
        assert np.array_equal(chain, whole)
        assert all(np.array_equal(a, b) for a, b in zip(inner, nested))
    spreads.clear()
    T.map_items(_large_chain, [x])  # one item runs in the caller, where its ops split as outside
    assert spreads and not T._inline.on


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread affinity calls on this platform")
def test_items_run_on_one_cpu_per_thread_and_the_mask_comes_back(use_pool):
    use_pool(2)
    mask = os.sched_getaffinity(0)

    def cpus(i):
        if i:
            raise _HelperError("the masks come back after an error too")
        return os.sched_getaffinity(0)

    seen = T.map_items(_items_on_two_threads(lambda i: os.sched_getaffinity(0)), [0, 1])
    if len(mask) >= 2:
        assert all(len(s) == 1 for s in seen) and seen[0] != seen[1]
    with pytest.raises(_HelperError):
        T.map_items(cpus, [0, 1])
    assert os.sched_getaffinity(0) == mask
    assert all(os.sched_getaffinity(tid) == mask for tid in T._helpers)


def test_concurrent_callers_share_the_pool_for_items(use_pool):
    """Callers on several threads spread items on one pool of more workers than cores.

    Each call hands out its items through its own counter and collects them
    through its own queue, so every call must get back exactly its own
    results, in order.
    """
    use_pool(4)
    rng = np.random.default_rng(13)
    inputs = [rng.standard_normal((4, _rows_over_split(4, 64), 64)).astype(np.float32) for _ in range(3)]
    expected = [_large_chain(x) for x in inputs]
    failures = []

    def work(i):
        for _ in range(3):
            got = T.map_items(lambda j: (j, _large_chain(inputs[j])), [i, (i + 1) % 3, i])
            if [j for j, _ in got] != [i, (i + 1) % 3, i] or not all(np.array_equal(g, expected[j]) for j, g in got):
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i % 3,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
