"""Named finite-difference checks over every differentiable component.

Each check builds a small float64 problem, compares reverse-mode gradients
against central differences, and reports the max relative error.  The CLI's
``gradcheck`` subcommand and the acceptance tests both run this table; simple
ops (the fused attention op among them) must come in under 1e-5 (1e-6 for
matmul), loss components under 1e-5, and deep compositions (pooled attention,
block, whole model) under 1e-4.
"""
from __future__ import annotations

import numpy as np

from . import losses as L
from . import tensor as T
from .backbone import BackboneConfig, Block, PooledAttention, StageConfig
from .data import MixedBatch
from .gradcheck import CheckResult, finite_diff_check
from .rng import Rng
from .tensor import Tensor
from .trainer import LossConfig, TrainConfig, build_model, compute_step_loss

OP_TOL = 1e-5
MATMUL_TOL = 1e-6
LOSS_TOL = 1e-5
DEEP_TOL = 1e-4


def _f64(rng: Rng, shape, scale: float = 1.0) -> Tensor:
    return Tensor(rng.normal(shape, std=scale).astype(np.float64))


def _widen(module, rng: Rng, std: float):
    """Re-draw weight matrices with a larger spread.

    Freshly initialized modules have tiny weights, so attention scores sit
    near zero and the whole map is almost quadratic in its input; central
    differences integrate quadratics exactly and the check loses its teeth.
    Wider weights push softmax and gelu into their curved regions.
    """
    for name, p in module.named_parameters():
        tail = name.rsplit(".", 1)[-1]
        if tail in ("gamma", "beta", "bias", "patch_bias"):
            continue
        p.data = rng.normal(p.shape, std=std).astype(p.data.dtype)
    return module


def run_all() -> list[CheckResult]:
    rng = Rng(2024, 0)
    checks: list[CheckResult] = []

    def add(name: str, err: float, tol: float):
        checks.append(CheckResult(name, err, tol))

    # A fixed weighting tensor makes scalar objectives sensitive to every
    # output coordinate instead of just their sum.
    mask = Tensor(rng.normal((2, 3, 4)).astype(np.float64))
    idx_rows = np.array([0, 1, 1, 0])

    # elementary ops -------------------------------------------------------
    x2 = _f64(rng, (3, 4))
    w2 = _f64(rng, (4, 5))
    add("matmul/lhs", finite_diff_check(lambda t: (t @ w2).sum(), x2), MATMUL_TOL)
    add("matmul/rhs", finite_diff_check(lambda t: (x2 @ t).sum(), w2), MATMUL_TOL)

    x = _f64(rng, (2, 3, 4))
    add(
        "elementwise",
        finite_diff_check(lambda t: ((t * t + 2.0 * t - 1.0) / (t * t + 2.0)).sum(), x),
        OP_TOL,
    )
    add("exp_log_sqrt", finite_diff_check(lambda t: T.sqrt(T.exp(t) + 1.0).log().sum(), x), OP_TOL)
    add("gelu", finite_diff_check(lambda t: (T.gelu(t) * mask).sum(), x), OP_TOL)
    add("softmax", finite_diff_check(lambda t: (T.softmax(t, axis=-1) * mask).sum(), x), OP_TOL)
    add(
        "log_softmax",
        finite_diff_check(lambda t: (T.log_softmax(t, axis=-1) * mask).sum(), x),
        OP_TOL,
    )
    # q, k and v are slices of one leaf, so the row checks all three gradients;
    # the spread of 1.5 puts the softmax in its curved region.
    arng = Rng(19, 0)
    qkv_shapes = ((2, 2, 4, 3), (2, 2, 5, 3), (2, 2, 5, 2))
    ends = np.cumsum([int(np.prod(shape)) for shape in qkv_shapes])
    qkv = _f64(arng, (int(ends[-1]),), scale=1.5)
    attn_mask = _f64(arng, (2, 2, 4, 2))

    def attend(t: Tensor) -> Tensor:
        q, k, v = (
            T.gather_rows(t, np.arange(end - int(np.prod(shape)), end)).reshape(shape)
            for shape, end in zip(qkv_shapes, ends)
        )
        return (T.attention(q, k, v, 1.0 / np.sqrt(3.0)) * attn_mask).sum()

    add("attention", finite_diff_check(attend, qkv), OP_TOL)
    add("reduce_mean", finite_diff_check(lambda t: (t.mean(axis=(0, 2)) ** 2).sum(), x), OP_TOL)
    add(
        "gather_rows",
        finite_diff_check(lambda t: (T.gather_rows(t, idx_rows) ** 2).sum(), x),
        OP_TOL,
    )

    gamma = _f64(rng, (4,))
    beta = _f64(rng, (4,))
    add(
        "layer_norm/input",
        finite_diff_check(
            lambda t: (T.layer_norm(t, Tensor(gamma.data), Tensor(beta.data), 1e-5) * mask).sum(),
            x,
        ),
        OP_TOL,
    )
    x_fixed = Tensor(x.data.copy())
    add(
        "layer_norm/scale",
        finite_diff_check(
            lambda t: (T.layer_norm(x_fixed, t, Tensor(beta.data), 1e-5) * mask).sum(), gamma
        ),
        OP_TOL,
    )

    xin = _f64(rng, (2, 4, 6, 6, 2), scale=0.5)
    kern = _f64(rng, (2, 3, 3, 2, 3), scale=0.5)
    # The kernel tiles the input at stride (2, 3, 3), as every model conv does.
    add("conv3d/input", finite_diff_check(lambda t: (T.conv3d(t, Tensor(kern.data)) ** 2).sum(), xin), OP_TOL)
    add("conv3d/kernel", finite_diff_check(lambda t: (T.conv3d(Tensor(xin.data), t) ** 2).sum(), kern), OP_TOL)

    # loss components ------------------------------------------------------
    zb = _f64(rng, (6, 5))
    add("variance_loss", finite_diff_check(lambda t: L.variance_loss(t, eps=1e-4), zb), LOSS_TOL)
    add("covariance_loss", finite_diff_check(lambda t: L.covariance_loss(t), zb), LOSS_TOL)

    logits = _f64(rng, (5, 4))
    labels = np.array([0, 2, 1, 3, 2])
    add("cross_entropy", finite_diff_check(lambda t: L.cross_entropy(t, labels), logits), LOSS_TOL)

    bank = L.ProjectionBank((4, 3))
    bank.pair(1, 0).data = Rng(7, 1).normal((4, 3), std=0.3)
    bank.pair(0, 1).data = Rng(7, 2).normal((3, 4), std=0.3)
    y0 = _f64(rng, (5, 4))
    y1 = _f64(rng, (5, 3))
    add(
        "projected_ce/own",
        finite_diff_check(
            lambda t: L.cross_entropy(L.project_logits(0, {0: t, 1: Tensor(y1.data)}, bank), labels),
            y0,
        ),
        LOSS_TOL,
    )
    add(
        "projected_ce/other",
        finite_diff_check(
            lambda t: L.cross_entropy(L.project_logits(0, {0: Tensor(y0.data), 1: t}, bank), labels),
            y1,
        ),
        LOSS_TOL,
    )
    wmat = Tensor(bank.pair(1, 0).data.copy())
    add(
        "projected_ce/bank",
        finite_diff_check(
            lambda t: L.cross_entropy(Tensor(y0.data) + Tensor(y1.data) @ t.transpose(1, 0), labels),
            wmat,
        ),
        LOSS_TOL,
    )

    lvals = _f64(rng, (2,), scale=0.5)
    sig = Tensor(np.array([0.8, 1.3]))
    add(
        "uncertainty_weights/sigma",
        finite_diff_check(
            lambda t: L.uncertainty_weighted_sum(
                {
                    0: (Tensor(lvals.data) ** 2).sum() * 0.5 + 1.0,
                    1: (Tensor(lvals.data) ** 2).mean() + 2.0,
                },
                t,
            ),
            sig,
        ),
        LOSS_TOL,
    )
    add(
        "uncertainty_weights/loss",
        finite_diff_check(
            lambda t: L.uncertainty_weighted_sum(
                {0: (t**2).sum() * 0.5 + 1.0, 1: (t**2).mean() + 2.0}, Tensor(sig.data)
            ),
            lvals,
        ),
        LOSS_TOL,
    )

    expander = _widen(L.Expander(5, 10, Rng(11, 0)).to_dtype(np.float64), Rng(11, 1), std=0.6)
    add(
        "expander_informative",
        finite_diff_check(
            lambda t: L.variance_loss(expander(t), eps=1e-4) + L.covariance_loss(expander(t)), zb
        ),
        LOSS_TOL,
    )

    # compositions -----------------------------------------------------------
    attn = _widen(
        PooledAttention(8, 2, (2, 2, 1), (1, 1, 1), Rng(13, 0)).to_dtype(np.float64),
        Rng(13, 1),
        std=0.5,
    )
    tokens = _f64(rng, (2, 8, 8), scale=0.5)  # grid (2, 2, 2)
    add(
        "pooled_attention",
        finite_diff_check(lambda t: (attn(t, (2, 2, 2))[0] ** 2).sum(), tokens),
        DEEP_TOL,
    )

    block = _widen(
        Block(8, 12, 2, (2, 1, 1), (1, 1, 1), 2.0, 1e-5, Rng(17, 0)).to_dtype(np.float64),
        Rng(17, 1),
        std=0.5,
    )
    add(
        "mvit_block",
        finite_diff_check(lambda t: (block(t, (2, 2, 2))[0] ** 2).sum(), tokens),
        DEEP_TOL,
    )

    add("end_to_end", _end_to_end_check(), DEEP_TOL)
    return checks


def _end_to_end_check() -> float:
    """Gradient of the full-mode training loss with respect to the input clips."""
    backbone_cfg = BackboneConfig(
        input_shape=(4, 8, 8, 1),
        patch=(2, 4, 4),
        stages=(
            StageConfig(blocks=1, dim=8, heads=2),
            StageConfig(blocks=1, dim=8, heads=2, q_stride=(2, 1, 1)),
        ),
        mlp_ratio=2.0,
    )
    train_cfg = TrainConfig(mode="full", seed=5, steps=10, warmup_steps=1, batch_size=4)
    model = build_model(backbone_cfg, [3, 2], train_cfg, LossConfig()).to_dtype(np.float64)
    _widen(model, Rng(37, 0), std=0.3)
    batch = MixedBatch(
        clips=np.zeros((4, 4, 8, 8, 1)),
        dataset_ids=np.array([0, 1, 0, 1]),
        labels=np.array([1, 0, 2, 1]),
        sample_ids=np.arange(4),
    )
    clips0 = Rng(23, 0).uniform((4, 4, 8, 8, 1)).astype(np.float64)

    def f(t: Tensor) -> Tensor:
        return compute_step_loss(model, t, batch, train_cfg)[0]

    return finite_diff_check(f, Tensor(clips0), max_coords=192, rng=Rng(29, 0))

