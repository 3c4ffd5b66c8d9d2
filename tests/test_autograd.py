"""Reverse-mode tape semantics: accumulation, consumption, error contracts."""

import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from cotrain import tensor as T
from cotrain.config import RunConfig
from cotrain.data import sample_mixed_batch
from cotrain.errors import ContractError, GraphError, ShapeError
from cotrain.gradcheck import finite_diff_check
from cotrain.rng import Rng
from cotrain.tensor import Tensor, no_grad
from cotrain.trainer import compute_step_loss


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_square_sum_gradient():
    x = leaf([1.0, 2.0])
    (x * x).sum().backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_reuse_accumulates():
    x = leaf([3.0])
    (x + x).sum().backward()
    npt.assert_array_equal(x.grad, [2.0])


def test_product_chain():
    x = leaf([1.0, 2.0])
    y = leaf([5.0, 7.0])
    (x * y + y).sum().backward()
    npt.assert_array_equal(x.grad, [5.0, 7.0])  # d/dx = y
    npt.assert_array_equal(y.grad, [2.0, 3.0])  # d/dy = x + 1


def test_broadcast_gradient_sums_over_batch():
    x = leaf(np.zeros((2, 3)))
    b = leaf(np.zeros(3))
    (x + b).sum().backward()
    npt.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
    npt.assert_array_equal(x.grad, np.ones((2, 3)))


def test_gather_rows_accumulates_repeated_indices():
    x = leaf(np.zeros((3, 2)))
    T.gather_rows(x, np.array([0, 0, 1])).sum().backward()
    npt.assert_array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


def test_softmax_gradient_hand_value():
    # s = softmax([0, 0]) = [1/2, 1/2]; d s0/dx = s0*(delta - s) = [1/4, -1/4]
    x = leaf([0.0, 0.0])
    s = T.softmax(x)
    (s * Tensor(np.array([1.0, 0.0]))).sum().backward()
    npt.assert_allclose(x.grad, [0.25, -0.25], rtol=1e-12)


def test_layer_norm_sum_has_zero_gradient():
    # sum of normalized values is invariant in x, so the gradient vanishes
    x = leaf(np.array([[0.3, -1.0, 2.0, 0.1]]))
    gamma = Tensor(np.ones(4))
    beta = Tensor(np.zeros(4))
    T.layer_norm(x, gamma, beta).sum().backward()
    npt.assert_allclose(x.grad, np.zeros((1, 4)), atol=1e-9)


def test_mean_gradient_divides_by_count():
    x = leaf(np.zeros((4, 5)))
    x.mean().backward()
    npt.assert_allclose(x.grad, np.full((4, 5), 1.0 / 20.0))


def test_matmul_gradients():
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    b = leaf([[5.0, 6.0], [7.0, 8.0]])
    (a @ b).sum().backward()
    # dL/dA = ones @ B^T, dL/dB = A^T @ ones
    npt.assert_array_equal(a.grad, np.ones((2, 2)) @ b.data.T)
    npt.assert_array_equal(b.grad, a.data.T @ np.ones((2, 2)))


def test_backward_requires_scalar():
    x = leaf([1.0, 2.0])
    with pytest.raises(ContractError):
        (x * x).backward()


def test_backward_requires_grad():
    x = Tensor(np.array(1.0))
    with pytest.raises(ContractError):
        x.backward()


def test_backward_twice_raises():
    x = leaf([1.0])
    y = x.sum()
    y.backward()
    with pytest.raises(GraphError):
        y.backward()


def test_consumed_subgraph_detected():
    x = leaf([1.0, 2.0])
    z = x * x
    z.sum().backward()
    # z's tape entry is spent; a second loss through it must refuse to run
    loss2 = (z * 2.0).sum()
    with pytest.raises(GraphError):
        loss2.backward()


def test_fresh_forward_after_backward():
    x = leaf([1.0, 2.0])
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    npt.assert_array_equal(x.grad, 2.0 * first)  # grads accumulate across sweeps


def test_no_grad_blocks_graph():
    x = leaf([1.0])
    with no_grad():
        y = x * x
    assert not y.requires_grad
    z = x * x
    assert z.requires_grad


def test_no_grad_nests():
    assert T.is_grad_enabled()
    with no_grad():
        with no_grad():
            assert not T.is_grad_enabled()
        assert not T.is_grad_enabled()
    assert T.is_grad_enabled()


def test_detach_cuts_graph():
    x = leaf([2.0])
    y = (x * x).detach()
    assert not y.requires_grad
    z = y * 3.0
    assert not z.requires_grad


def test_grad_cast_to_leaf_dtype():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    y = Tensor(np.array([1.0, 2.0], dtype=np.float64), requires_grad=True)
    (x * y).sum().backward()
    assert x.grad.dtype == np.float32
    assert y.grad.dtype == np.float64


def test_finite_diff_agrees_on_composed_function():
    x = Tensor(np.linspace(-1.0, 1.5, 12).reshape(3, 4))
    err = finite_diff_check(lambda v: (T.gelu(v) * T.softmax(v, axis=-1)).sum(), x)
    assert err < 1e-7


def test_finite_diff_catches_wrong_gradient():
    # a deliberately broken backward rule must blow past any sane threshold
    def broken_square(v):
        out = T._from_op(v.data * v.data, (v,), lambda g: (g * 3.0 * v.data,), "mul")  # wrong: should be 2x
        return out.sum()

    x = Tensor(np.array([0.7, -1.3]))
    err = finite_diff_check(broken_square, x)
    assert err > 1e-2


@pytest.mark.parametrize("axes", [(0, -1, 1), (-1, -3, -2), (2, 0, -2)])
def test_transpose_with_negative_axes_matches_finite_differences(axes):
    # Weights that differ everywhere, so a gradient sent to the wrong place shows.
    x = Tensor(np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4))
    w = Tensor(np.linspace(0.5, 3.0, 24).reshape(np.transpose(x.data, axes).shape))
    leaf_x = leaf(x.data)
    (T.transpose(leaf_x, axes) * w).sum().backward()
    assert leaf_x.grad.shape == (2, 3, 4)
    err = finite_diff_check(lambda v: (T.transpose(v, axes) * w).sum(), x)
    assert err < 1e-7


@pytest.mark.parametrize("axes", [(0, 1, 3), (0, -4, 1), (0, 0, 1), (0, -3, 2), (0, 1)])
def test_transpose_rejects_bad_axes(axes):
    with pytest.raises(ShapeError):
        T.transpose(leaf(np.zeros((2, 3, 4))), axes)


def _reference_sweep(root):
    """The reverse sweep as first written: a dict keyed by ``id()`` for the
    post-order over every grad-requiring ancestor, then one accumulation per
    parent in that order.  Kept frozen, so the tape's sweep is held to its bits.
    An ancestor is a tape node or a leaf tensor; only nodes have parents and
    a rule.
    """
    order, state, stack = [], {}, [root._node]
    while stack:
        node = stack[-1]
        st = state.get(id(node))
        if st is None:
            state[id(node)] = 0
            for p in node.parents if isinstance(node, T._Node) else ():
                if p is not None and state.get(id(p)) is None:
                    stack.append(p)
        elif st == 0:
            stack.pop()
            state[id(node)] = 1
            order.append(node)
        else:
            stack.pop()
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if not isinstance(node, T._Node):
            continue
        for parent, g in zip(node.parents, node.rule(node.grad)):
            if g is None or parent is None:
                continue
            if g.dtype != parent.dtype:
                g = g.astype(parent.dtype)
            parent.grad = g if parent.grad is None else np.add(parent.grad, g)


def _fan_out_graph():
    """A float32 graph in which ``z`` feeds five consumers, as the backbone output
    feeds every dataset's ``gather_rows`` and the expander; returns the loss, z
    and the leaves."""
    rng = np.random.default_rng(0)

    def param(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    x, w0, w1, b1 = param(12, 6), param(6, 5), param(5, 7), param(7)
    z = T.gelu(x @ w0)
    terms = []
    for idx in (np.array([0, 3, 4, 9]), np.array([1, 2, 7]), np.array([5, 6, 8, 10, 11]), np.array([2, 5])):
        zk = T.gather_rows(z, idx)
        terms.append(T.log_softmax(zk @ w1 + b1, axis=1).sum() / float(len(idx)))
    expanded = z @ w1
    terms.append((expanded * expanded).mean())
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    return loss, z, (x, w0, w1, b1)


def test_fan_out_gradient_is_bitwise_the_reference_sweep():
    loss, z, leaves = _fan_out_graph()
    loss.backward()
    ref_loss, ref_z, ref_leaves = _fan_out_graph()
    _reference_sweep(ref_loss)
    # z is an interior node the caller still holds: the sweep retires its
    # tape entry but leaves it its gradient.
    assert z._node.parents == () and z._node.rule is None
    assert z.grad.dtype == np.float32
    assert z.grad.tobytes() == ref_z.grad.tobytes()
    for got, want in zip(leaves, ref_leaves):
        assert got.grad.tobytes() == want.grad.tobytes()


def _attention_graph():
    """``softmax((a @ b) * s) @ v``, summed, over float32 leaves; returns the loss,
    weakrefs to the arrays of ``a @ b`` and ``(a @ b) * s``, and the leaves.  The
    caller holds no interior tensor.  The scores hold SPLIT_SIZE elements, so on
    two workers the ops split."""
    rng = np.random.default_rng(3)

    def param(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    a, b, v = param(8, 2, 128, 16), param(8, 2, 16, 128), param(8, 2, 128, 16)
    scores = a @ b
    scaled = scores * 0.25
    refs = [weakref.ref(scores.data), weakref.ref(scaled.data)]
    loss = (T.softmax(scaled, axis=-1) @ v).sum()
    return loss, refs, (a, b, v)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_tape_keeps_only_the_arrays_its_rules_read(workers, use_pool):
    # No rule reads the scores or the scaled scores (softmax's reads its
    # output), so they are gone once the caller drops their tensors.
    use_pool(workers)
    loss, refs, leaves = _attention_graph()
    assert [ref() for ref in refs] == [None, None]
    loss.backward()
    ref_loss, _, ref_leaves = _attention_graph()
    _reference_sweep(ref_loss)
    for got, want in zip(leaves, ref_leaves):
        assert got.grad.tobytes() == want.grad.tobytes()


@pytest.mark.parametrize("needs", ["qkv", "q", "k", "v"])
def test_the_attention_rule_keeps_only_q_k_v_and_the_probabilities(needs):
    """The fused node's rule holds the operands a needed gradient reads and the softmax output, no scores copy.

    q's gradient reads k and v, k's reads q and v, and v's reads only the
    probabilities, which every gradient reads.
    """
    rng = np.random.default_rng(6)
    q, k, v = (
        Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=name in needs)
        for name, shape in zip("qkv", [(2, 2, 6, 4), (2, 2, 5, 4), (2, 2, 5, 3)])
    )
    out = T.attention(q, k, v, 0.5)
    kept = [c.cell_contents for c in out._node.rule.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    operands = {"q": q.data, "k": k.data, "v": v.data}
    reads = {"q": "kv", "k": "qv", "v": ""}
    wanted = {name for need in needs for name in reads[need]}
    assert sorted(name for name, arr in operands.items() if any(a is arr for a in kept)) == sorted(wanted)
    (probs,) = [a for a in kept if not any(a is arr for arr in operands.values())]
    chain = T.softmax((Tensor(q.data) @ Tensor(k.data).transpose(0, 1, 3, 2)) * 0.5, axis=-1)
    assert probs.tobytes() == chain.data.tobytes()


def _sweep_peak_bytes(links: int) -> int:
    """How far the sweep's allocations peak above those live when it starts, on a
    chain of ``links`` ``gelu(y * 0.5)`` nodes over a 1 MB float32 leaf of
    which the caller keeps only the loss."""
    x = Tensor(np.random.default_rng(0).standard_normal((256, 1024)).astype(np.float32), requires_grad=True)
    y = x
    for _ in range(links):
        y = T.gelu(y * 0.5)
    loss = y.sum()
    del y
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss.backward()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_releases_the_nodes_it_has_passed(workers, use_pool):
    # Each interior node's output, gradient and rule go once its rule has run,
    # so the sweep holds a few arrays at a time, not one gradient per node.
    # Holding the whole order until the end had peaked 1 MB higher per node.
    # The leaf is SPLIT_SIZE elements, so on two workers the ops split.
    use_pool(workers)
    assert _sweep_peak_bytes(20) - _sweep_peak_bytes(10) < 2 * 2**20


def test_training_step_gradients_are_bitwise_the_reference_sweep():
    cfg = RunConfig.load(None, [])
    state = cfg.train_state()
    batch = sample_mixed_batch(Rng(1, 7), 16, state.suite)
    params = dict(state.model.named_parameters())
    compute_step_loss(state.model, Tensor(batch.clips), batch, state.config)[0].backward()
    got = {name: p.grad for name, p in params.items()}
    for p in params.values():
        p.grad = None
    _reference_sweep(compute_step_loss(state.model, Tensor(batch.clips), batch, state.config)[0])
    assert got.keys() == {name for name, p in params.items() if p.grad is not None}
    for name, p in params.items():
        assert got[name].tobytes() == p.grad.tobytes(), name
        assert got[name].strides == p.grad.strides, name


def test_mean_gradient_keeps_the_broadcast_memory_order():
    # The backbone's final mean over tokens hands its input a gradient in the
    # layout ``np.broadcast_to(...).astype`` gives: the token axis innermost.
    # A C-ordered copy has the same values, but the sums downstream of it then
    # run in another order and change the trained bits.
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 6, 5)).astype(np.float32), requires_grad=True)
    w = rng.standard_normal((4, 5)).astype(np.float32)
    (x.mean(axis=1) * w).sum().backward()
    want = np.broadcast_to(w.reshape(4, 1, 5) / 6, (4, 6, 5)).astype(np.float32)
    assert not want.flags.c_contiguous
    assert x.grad.strides == want.strides
    assert x.grad.tobytes() == want.tobytes()
