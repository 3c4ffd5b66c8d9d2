"""Optimizer and schedule tests: closed-form single-step values, the arena
layout and its skip / rebind rules, and bit equality with a per-tensor loop."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from cotrain import trainer
from cotrain.backbone import BackboneConfig, StageConfig
from cotrain.config import RunConfig
from cotrain.data import generate_synthetic_suite, sample_mixed_batch
from cotrain.errors import ConfigError, ContractError, NumericError, ShapeError
from cotrain.optim import AdamW, adamw_update, lr_schedule
from cotrain.rng import Rng
from cotrain.tensor import Tensor


class TestAdamWUpdate:
    def test_single_step_hand_value(self):
        # First step with m=v=0: m_hat = grad, v_hat = grad^2, so the Adam
        # term is lr * sign(grad) up to eps; decay shrinks the weight first.
        param = np.array([2.0])
        grad = np.array([0.5])
        m = np.zeros(1)
        v = np.zeros(1)
        lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
        adamw_update(param, grad, m, v, t=1, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        decayed = 2.0 - lr * wd * 2.0
        want = decayed - lr * 0.5 / (math.sqrt(0.25) + eps)
        npt.assert_allclose(param, [want], atol=1e-12)
        npt.assert_allclose(m, [(1 - b1) * 0.5], atol=1e-15)
        npt.assert_allclose(v, [(1 - b2) * 0.25], atol=1e-15)

    def test_two_steps_track_moments(self):
        param = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        g1, g2 = 0.3, -0.2
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        adamw_update(param, np.array([g1]), m, v, 1, lr, b1, b2, eps, 0.0)
        adamw_update(param, np.array([g2]), m, v, 2, lr, b1, b2, eps, 0.0)
        m_want = b1 * (1 - b1) * g1 + (1 - b1) * g2
        v_want = b2 * (1 - b2) * g1**2 + (1 - b2) * g2**2
        npt.assert_allclose(m, [m_want], atol=1e-15)
        npt.assert_allclose(v, [v_want], atol=1e-15)

    def test_zero_decay_leaves_magnitude_to_adam_only(self):
        a = np.array([5.0])
        b = np.array([5.0])
        g = np.array([0.1])
        adamw_update(a, g, np.zeros(1), np.zeros(1), 1, 0.1, 0.9, 0.999, 1e-8, 0.0)
        adamw_update(b, g, np.zeros(1), np.zeros(1), 1, 0.1, 0.9, 0.999, 1e-8, 0.05)
        npt.assert_allclose(a[0] - b[0], 0.1 * 0.05 * 5.0, atol=1e-12)


def make_param(values, requires_grad=True):
    t = Tensor(np.asarray(values, dtype=np.float32), requires_grad=requires_grad)
    return t


class TestAdamW:
    def test_decay_skips_vectors(self):
        mat = make_param([[1.0, 1.0], [1.0, 1.0]])
        vec = make_param([1.0, 1.0])
        opt = AdamW({"w": mat, "b": vec}, weight_decay=0.5)
        mat.grad = np.zeros((2, 2), dtype=np.float32)
        vec.grad = np.zeros(2, dtype=np.float32)
        opt.step(lr=0.1)
        npt.assert_allclose(mat.data, 0.95 * np.ones((2, 2)), atol=1e-6)
        npt.assert_allclose(vec.data, np.ones(2), atol=1e-7)

    def test_params_without_grad_are_untouched(self):
        p = make_param([3.0, 3.0])
        opt = AdamW({"p": p})
        opt.step(lr=0.1)
        npt.assert_array_equal(p.data, [3.0, 3.0])
        assert opt.t == 1

    def test_zero_grad_clears(self):
        p = make_param([1.0])
        p.grad = np.ones(1, dtype=np.float32)
        opt = AdamW({"p": p})
        opt.zero_grad()
        assert p.grad is None

    def test_state_roundtrip_is_bitwise(self):
        p = make_param([[1.0, 2.0]])
        opt = AdamW({"p": p}, weight_decay=0.1)
        for step in range(3):
            p.grad = np.full((1, 2), 0.1 * (step + 1), dtype=np.float32)
            opt.step(lr=0.05)
        stash = opt.state_arrays()
        assert set(stash) == {"opt.m.p", "opt.v.p"}

        fresh = AdamW({"p": make_param([[0.0, 0.0]])}, weight_decay=0.1)
        fresh.load_state_arrays(stash, t=3)
        assert fresh.t == 3
        npt.assert_array_equal(fresh.m["p"], opt.m["p"])
        npt.assert_array_equal(fresh.v["p"], opt.v["p"])
        assert fresh.m["p"].dtype == np.float32

    def test_moments_keep_parameter_dtype(self):
        p = make_param([[1.0]])
        opt = AdamW({"p": p})
        assert opt.m["p"].dtype == np.float32
        assert opt.v["p"].dtype == np.float32

    def test_load_rejects_off_shape_moment(self):
        p = make_param([1.0, 2.0])
        opt = AdamW({"p": p})
        stash = opt.state_arrays()
        # (1, 2) would broadcast into the (2,) view without a word.
        stash["opt.v.p"] = np.ones((1, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"'opt\.v\.p' has shape \(2,\), state has \(1, 2\)"):
            opt.load_state_arrays(stash, t=4)
        assert opt.t == 0
        npt.assert_array_equal(opt.v["p"], [0.0, 0.0])


class TestArena:
    def test_views_share_one_aligned_arena_matrices_first(self):
        params = {
            "b1": make_param([1.0, 2.0, 3.0]),
            "w1": make_param(np.ones((3, 5))),
            "b2": make_param([4.0]),
            "w2": make_param(np.ones((2, 2, 2))),
        }
        values = {name: p.data.copy() for name, p in params.items()}
        opt = AdamW(params)
        base = params["w1"].data.base
        for name, p in params.items():
            npt.assert_array_equal(p.data, values[name])
            for view in (p.data, opt.m[name], opt.v[name]):
                assert view.ctypes.data % 64 == 0, name
                assert view.flags.c_contiguous
            assert p.data.base is base
        addr = {name: p.data.ctypes.data for name, p in params.items()}
        assert max(addr["w1"], addr["w2"]) < min(addr["b1"], addr["b2"])
        assert len(opt.state_arrays()) == 2 * len(params)

    def test_mixed_dtypes_are_refused(self):
        with pytest.raises(ContractError, match="one parameter dtype"):
            AdamW({"a": make_param([1.0]), "b": Tensor(np.ones(2), requires_grad=True, dtype=np.float64)})

    def test_skipped_tensor_is_bit_unchanged_and_resumes_with_global_t(self):
        a = make_param([[1.0, 2.0]])
        b = make_param([0.5, -0.5])
        opt = AdamW({"a": a, "b": b}, weight_decay=0.1)
        ga = np.array([[0.1, -0.2]], dtype=np.float32)
        gb = np.array([0.3, 0.4], dtype=np.float32)
        a.grad, b.grad = ga, gb
        opt.step(lr=0.01)
        opt.zero_grad()
        kept = [b.data.copy(), opt.m["b"].copy(), opt.v["b"].copy()]

        a.grad = ga
        opt.step(lr=0.01)
        opt.zero_grad()
        for now, then in zip((b.data, opt.m["b"], opt.v["b"]), kept):
            npt.assert_array_equal(now, then)

        # Its next update is the per-tensor update at the global t = 3.
        want_p, want_m, want_v = kept
        adamw_update(want_p, gb, want_m, want_v, 3, 0.01, 0.9, 0.999, 1e-8, 0.0)
        a.grad, b.grad = ga, gb
        opt.step(lr=0.01)
        npt.assert_array_equal(b.data, want_p)
        npt.assert_array_equal(opt.m["b"], want_m)
        npt.assert_array_equal(opt.v["b"], want_v)

    def test_rebound_data_trains(self):
        p = make_param([[1.0, 2.0]])
        opt = AdamW({"p": p}, weight_decay=0.1)
        fresh = np.array([[5.0, -3.0]], dtype=np.float32)
        p.data = fresh.copy()
        g = np.array([[0.2, 0.1]], dtype=np.float32)
        p.grad = g
        opt.step(lr=0.1)
        want, m, v = fresh.copy(), np.zeros_like(fresh), np.zeros_like(fresh)
        adamw_update(want, g, m, v, 1, 0.1, 0.9, 0.999, 1e-8, 0.1)
        npt.assert_array_equal(p.data, want)
        npt.assert_array_equal(opt.m["p"], m)
        # p.data is the arena view again, so the next step trains it in place.
        p.grad = g
        opt.step(lr=0.1)
        adamw_update(want, g, m, v, 2, 0.1, 0.9, 0.999, 1e-8, 0.1)
        npt.assert_array_equal(p.data, want)

    def test_rebind_to_another_shape_is_refused(self):
        p = make_param([1.0, 2.0])
        opt = AdamW({"p": p})
        p.data = np.zeros(3, dtype=np.float32)
        with pytest.raises(ShapeError, match="'p'"):
            opt.step(lr=0.1)

    def test_norm_sums_each_gradient_in_its_memory_order(self):
        # Backward hands the projection bank transposed (F-ordered) gradients.
        # Summing those in C order changes the norm's last bit in about one
        # draw in six, so one hundred draws all must agree.
        rng = np.random.default_rng(3)
        for _ in range(100):
            w, b = make_param(np.zeros((24, 40))), make_param(np.zeros(37))
            opt = AdamW({"w": w, "b": b})
            w.grad = np.asfortranarray(rng.standard_normal((24, 40)).astype(np.float32))
            b.grad = rng.standard_normal(37).astype(np.float32)
            want = _legacy_clip([w, b], max_norm=np.inf)
            assert opt.clip_grad_norm(max_norm=np.inf) == want

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_norm_raises(self, bad):
        p = make_param([1.0, 2.0])
        opt = AdamW({"p": p})
        p.grad = np.array([bad, 1.0], dtype=np.float32)
        with pytest.raises(NumericError, match="gradient norm at step 0"):
            opt.clip_grad_norm(1.0)


def _legacy_clip(params, max_norm):
    """The per-tensor clip the arena replaced, returning its norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = total**0.5
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def _legacy_steps(state, num_steps):
    """``train_steps`` with the per-tensor clip and one ``adamw_update`` per tensor."""
    cfg, opt = state.config, state.opt
    m = {name: np.zeros_like(p.data) for name, p in opt.params.items()}
    v = {name: np.zeros_like(p.data) for name, p in opt.params.items()}
    norms, counts = [], []
    for t in range(1, num_steps + 1):
        rng = Rng(cfg.seed, stream=trainer._STREAM_BATCH_BASE + state.step)
        batch = sample_mixed_batch(rng, cfg.batch_size, state.suite, cfg.mixing)
        total, report = trainer.compute_step_loss(state.model, batch, cfg)
        total.backward()
        norms.append(_legacy_clip(list(opt.params.values()), cfg.grad_clip))
        counts.append(report.counts)
        lr = lr_schedule(state.step, cfg.steps, cfg.base_lr, cfg.warmup_steps, cfg.lr_min)
        for name, p in opt.params.items():
            if p.grad is not None:
                decay = opt.weight_decay if p.data.ndim >= 2 else 0.0
                adamw_update(p.data, p.grad, m[name], v[name], t, lr, opt.beta1, opt.beta2, opt.eps, decay)
            p.grad = None
        state.step += 1
    return m, v, norms, counts


def _arena_steps(state, num_steps):
    """``train_steps`` as shipped, recording the norm of every clip."""
    norms = []
    clip = state.opt.clip_grad_norm

    def recording_clip(max_norm):
        norms.append(clip(max_norm))
        return norms[-1]

    state.opt.clip_grad_norm = recording_clip
    trainer.train_steps(state, num_steps)
    return norms


def _assert_same_training(make_state, num_steps):
    arena, legacy = make_state(), make_state()
    norms = _arena_steps(arena, num_steps)
    m, v, legacy_norms, counts = _legacy_steps(legacy, num_steps)
    assert norms == legacy_norms
    for name, p in arena.opt.params.items():
        npt.assert_array_equal(p.data, legacy.opt.params[name].data, err_msg=name)
        npt.assert_array_equal(arena.opt.m[name], m[name], err_msg=name)
        npt.assert_array_equal(arena.opt.v[name], v[name], err_msg=name)
    return counts


class TestSameBitsAsPerTensorLoop:
    def test_default_config(self):
        cfg = RunConfig.load(None, [])
        suite = cfg.suite()
        _assert_same_training(
            lambda: trainer.TrainState.create(cfg.backbone_config(), suite, cfg.train_config(), cfg.loss_config()),
            3,
        )

    def test_multi_dataset_run_with_absent_datasets(self):
        shape = (4, 8, 8, 1)
        backbone = BackboneConfig(
            input_shape=shape, patch=(2, 4, 4), stages=(StageConfig(blocks=1, dim=8, heads=2),), mlp_ratio=2.0
        )
        suite = generate_synthetic_suite(
            7, num_datasets=4, class_counts=[3, 4, 5, 6], train_sizes=[8, 8, 8, 8], concept_count=24,
            test_sizes=[2, 2, 2, 2], clip_shape=shape,
        )
        config = trainer.TrainConfig.for_mode("full", steps=8, batch_size=4, warmup_steps=2, weight_decay=0.05)
        counts = _assert_same_training(lambda: trainer.TrainState.create(backbone, suite, config), 6)
        # Some step left a dataset out, so its head and bank rows had no gradient.
        assert any(0 in c.values() for c in counts)


class TestLrSchedule:
    def test_warmup_is_linear(self):
        assert lr_schedule(0, 100, 1.0, 10) == 0.0
        npt.assert_allclose(lr_schedule(5, 100, 1.0, 10), 0.5, atol=1e-12)
        npt.assert_allclose(lr_schedule(10, 100, 1.0, 10), 1.0, atol=1e-12)

    def test_cosine_endpoint_hits_lr_min(self):
        assert abs(lr_schedule(100, 100, 3e-4, 10, lr_min=1e-5) - 1e-5) < 1e-12
        assert abs(lr_schedule(2000, 2000, 1.0, 0) - 0.0) < 1e-12

    def test_cosine_midpoint(self):
        # Halfway through decay the cosine sits at the arithmetic mean.
        lr = lr_schedule(55, 100, 1.0, 10, lr_min=0.2)
        npt.assert_allclose(lr, 0.6, atol=1e-12)

    def test_monotone_decay_after_warmup(self):
        values = [lr_schedule(s, 200, 1.0, 20) for s in range(20, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_warmup_with_floor(self):
        npt.assert_allclose(lr_schedule(0, 100, 1.0, 10, lr_min=0.1), 0.1, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            lr_schedule(0, 0, 1.0, 0)
        with pytest.raises(ConfigError):
            lr_schedule(0, 100, 1.0, 100)
        with pytest.raises(ConfigError):
            lr_schedule(0, 100, 1.0, -1)
