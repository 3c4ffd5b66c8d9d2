"""Training loop for joint multi-dataset models.

A :class:`JointModel` bundles the backbone with everything mode-dependent:
the expander feeding the informative regularizers, per-dataset heads, the
cross-dataset projection bank, and the per-dataset uncertainty parameters.
Ablation modes drop components; ``vanilla`` is independent heads under a plain
sum of cross-entropies.

Every random draw is keyed by ``(seed, stream)`` where the stream encodes its
role (init vs. the batch of step ``t``), so a checkpoint only needs parameter
and moment arrays plus the step counter to resume bit-exactly.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import losses as L
from .backbone import Backbone, BackboneConfig
from .data import MixedBatch, SyntheticSuite, sample_mixed_batch
from .errors import ConfigError
from .nn import Module
from .optim import AdamW, lr_schedule
from .rng import Rng
from .tensor import Tensor, gather_rows, map_items, no_grad
from .tensor_io import load_arrays, save_arrays

_STREAM_INIT = 1
_STREAM_BATCH_BASE = 1 << 32

MODES = ("full", "vanilla", "wo_informative", "wo_informative_wo_projadd", "wo_projection")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 16
    base_lr: float = 1e-3
    lr_min: float = 0.0
    warmup_steps: int = 300
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 1
    mixing: str = "proportional"
    use_informative: bool = True
    use_projection_loss: bool = True
    projection_add: bool = True
    vanilla: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0 <= self.warmup_steps < self.steps:
            raise ConfigError(
                f"warmup_steps must lie in [0, steps), got {self.warmup_steps} of {self.steps}"
            )
        if self.vanilla and (self.use_informative or self.use_projection_loss or self.projection_add):
            raise ConfigError("vanilla mode excludes the informative and projection components")
        if self.projection_add and not self.use_projection_loss:
            raise ConfigError("projection_add requires use_projection_loss")

    @property
    def mode(self) -> str:
        if self.vanilla:
            return "vanilla"
        if self.use_informative and self.use_projection_loss and self.projection_add:
            return "full"
        if not self.use_informative and self.use_projection_loss and self.projection_add:
            return "wo_informative"
        if not self.use_informative and self.use_projection_loss:
            return "wo_informative_wo_projadd"
        if self.use_informative and not self.use_projection_loss:
            return "wo_projection"
        return "custom"

    @staticmethod
    def for_mode(mode: str, **overrides) -> "TrainConfig":
        flags = {
            "full": dict(use_informative=True, use_projection_loss=True, projection_add=True, vanilla=False),
            "vanilla": dict(use_informative=False, use_projection_loss=False, projection_add=False, vanilla=True),
            "wo_informative": dict(use_informative=False, use_projection_loss=True, projection_add=True, vanilla=False),
            "wo_informative_wo_projadd": dict(use_informative=False, use_projection_loss=True, projection_add=False, vanilla=False),
            "wo_projection": dict(use_informative=True, use_projection_loss=False, projection_add=False, vanilla=False),
        }
        if mode not in flags:
            raise ConfigError(f"unknown mode '{mode}', expected one of {MODES}")
        return TrainConfig(**{**flags[mode], **overrides})


@dataclass(frozen=True)
class LossConfig:
    eps: float = 1e-4
    variance_formula: str = "hinge-std"
    expander_hidden: int = 0  # 0 means twice the embedding width
    sigma_init: float = 1.0
    detach_sigma_loss: bool = False

    def hidden_for(self, dim: int) -> int:
        return self.expander_hidden if self.expander_hidden > 0 else 2 * dim


class JointModel(Module):
    def __init__(
        self,
        backbone: Backbone,
        heads: L.HeadBank,
        expander: Optional[L.Expander],
        projections: Optional[L.ProjectionBank],
        sigma: Optional[L.SigmaParams],
        loss_config: LossConfig,
    ):
        self.backbone = backbone
        self.heads = heads
        self.expander = expander
        self.projections = projections
        self.sigma = sigma
        self.loss_config = loss_config

    @property
    def num_datasets(self) -> int:
        return self.heads.num_datasets


def build_model(
    backbone_config: BackboneConfig,
    class_counts,
    train_config: TrainConfig,
    loss_config: LossConfig = LossConfig(),
) -> JointModel:
    """Instantiate a model with exactly the components the mode trains."""
    rng = Rng(train_config.seed, stream=_STREAM_INIT)
    backbone = Backbone(backbone_config, rng)
    dim = backbone_config.embed_dim
    expander = (
        L.Expander(dim, loss_config.hidden_for(dim), rng) if train_config.use_informative else None
    )
    heads = L.HeadBank(dim, class_counts, rng)
    projections = L.ProjectionBank(class_counts) if train_config.use_projection_loss else None
    sigma = None if train_config.vanilla else L.SigmaParams(len(class_counts), loss_config.sigma_init)
    return JointModel(backbone, heads, expander, projections, sigma, loss_config)


def compute_step_loss(
    model: JointModel, batch: MixedBatch, config: TrainConfig
) -> tuple[Tensor, L.LossReport]:
    """Forward pass and loss assembly for one mixed batch."""
    z = model.backbone(Tensor(batch.clips))
    per_dataset: dict[int, Tensor] = {}
    counts: dict[int, int] = {}
    for k in range(model.num_datasets):
        idx = np.flatnonzero(batch.dataset_ids == k)
        counts[k] = int(idx.size)
        if idx.size == 0:
            continue
        zk = gather_rows(z, idx)
        labels = batch.labels[idx]
        if config.use_projection_loss and model.projections is not None:
            logits = model.heads.all_logits(zk)
            if config.projection_add:
                lk = L.cross_entropy(L.project_logits(k, logits, model.projections), labels)
            else:
                # Projection branches supervised directly, next to the plain head loss.
                own = L.cross_entropy(logits[k], labels)
                proj = L.cross_entropy(
                    L.projection_only_logits(k, logits, model.projections), labels
                )
                lk = own + proj
        else:
            lk = L.cross_entropy(model.heads(k, zk), labels)
        per_dataset[k] = lk

    variance = covariance = None
    if config.use_informative and model.expander is not None:
        z_exp = model.expander(z)
        variance = L.variance_loss(z_exp, model.loss_config.eps, model.loss_config.variance_formula)
        covariance = L.covariance_loss(z_exp)

    return L.total_loss(
        variance,
        covariance,
        per_dataset,
        None if config.vanilla else model.sigma,
        counts,
        model.loss_config.detach_sigma_loss,
    )


@dataclass
class EvalResult:
    top1: float
    top5: float
    count: int


@dataclass
class TrainState:
    model: JointModel
    opt: AdamW
    config: TrainConfig
    suite: SyntheticSuite
    step: int = 0
    config_hash: str = ""

    @staticmethod
    def create(
        backbone_config: BackboneConfig,
        suite: SyntheticSuite,
        train_config: TrainConfig,
        loss_config: LossConfig = LossConfig(),
        config_hash: str = "",
    ) -> "TrainState":
        class_counts = [spec.num_classes for spec in suite.specs]
        model = build_model(backbone_config, class_counts, train_config, loss_config)
        opt = AdamW(
            dict(model.named_parameters()),
            betas=(train_config.beta1, train_config.beta2),
            eps=train_config.adam_eps,
            weight_decay=train_config.weight_decay,
        )
        if not config_hash:
            blob = repr((backbone_config, train_config, loss_config, suite.seed)).encode()
            config_hash = hashlib.sha256(blob).hexdigest()[:16]
        return TrainState(model, opt, train_config, suite, step=0, config_hash=config_hash)


def train_steps(
    state: TrainState,
    num_steps: int,
    on_report: Optional[Callable[[int, float, L.LossReport], None]] = None,
) -> list[L.LossReport]:
    """Run ``num_steps`` optimization steps, returning one report per step.

    ``on_report(step, lr, report)`` fires after each step.  Batches are drawn
    from the stream keyed by the absolute step index, so training is
    insensitive to how the total step count is chunked across calls.
    """
    cfg = state.config
    reports = []
    for _ in range(num_steps):
        rng = Rng(cfg.seed, stream=_STREAM_BATCH_BASE + state.step)
        batch = sample_mixed_batch(rng, cfg.batch_size, state.suite, cfg.mixing)
        total, report = compute_step_loss(state.model, batch, cfg)
        report.check_finite(state.step)
        total.backward()
        if cfg.grad_clip > 0:
            state.opt.clip_grad_norm(cfg.grad_clip)
        lr = lr_schedule(state.step, cfg.steps, cfg.base_lr, cfg.warmup_steps, cfg.lr_min)
        state.opt.step(lr)
        state.opt.zero_grad()
        state.step += 1
        reports.append(report)
        if on_report is not None:
            on_report(state.step - 1, lr, report)
    return reports


def evaluate(
    model: JointModel,
    suite: SyntheticSuite,
    split: str = "test",
    batch_size: int = 64,
) -> dict[int, EvalResult]:
    """Per-dataset top-1/top-5 accuracy using each dataset's own head only.

    Each dataset's split is cut into batches of ``batch_size`` clips in id
    order, the last one shorter.  The batches of every dataset are spread
    across the tensor pool as independent items, each stacking its own clips
    from the suite's cache, so every batch's logits are those a serial loop
    over the same batches would give, for any worker count.
    """
    if batch_size < 1:
        raise ConfigError(f"eval batch size must be >= 1, got {batch_size}")
    batches = []  # (dataset id, sample ids)
    for spec in suite.specs:
        ids = suite.split_ids(spec.id, split)
        batches += [(spec.id, ids[start : start + batch_size]) for start in range(0, len(ids), batch_size)]

    def hits(batch) -> tuple[int, int]:
        k, ids = batch
        clips = np.stack([suite.clip(k, int(i)) for i in ids])
        truth = np.array([suite.label_of(k, int(i)) for i in ids], dtype=np.int64)
        logits = model.heads(k, model.backbone(Tensor(clips))).data
        order = np.argsort(-logits, axis=1)
        top5 = order[:, : min(5, logits.shape[1])]
        return int((order[:, 0] == truth).sum()), int((top5 == truth[:, None]).any(axis=1).sum())

    with no_grad():
        counts = map_items(hits, batches)
    totals = {spec.id: [0, 0, 0] for spec in suite.specs}
    for (k, ids), (hits1, hits5) in zip(batches, counts):
        total = totals[k]
        total[0] += hits1
        total[1] += hits5
        total[2] += len(ids)
    return {k: EvalResult(top1=h1 / n, top5=h5 / n, count=n) for k, (h1, h5, n) in totals.items()}


# -- checkpointing ------------------------------------------------------------


def save_checkpoint(state: TrainState, path) -> None:
    """Write ``<path>`` (arrays) and ``<path>.json`` (manifest)."""
    path = Path(path)
    arrays = state.model.state_arrays()
    arrays.update(state.opt.state_arrays())
    save_arrays(path, arrays)
    manifest = {
        "step": state.step,
        "config_hash": state.config_hash,
        "rng_state": {"algorithm": "philox", "seed": state.config.seed, "next_step": state.step},
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_checkpoint(state: TrainState, path) -> TrainState:
    """Restore parameters, optimizer moments, and the step counter in place."""
    path = Path(path)
    arrays = load_arrays(path)
    manifest = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    model_arrays = {k: v for k, v in arrays.items() if not k.startswith("opt.")}
    state.model.load_state_arrays(model_arrays)
    state.step = int(manifest["step"])
    state.opt.load_state_arrays(arrays, t=state.step)
    return state
