"""Training loop for joint multi-dataset models.

A :class:`JointModel` bundles the backbone with everything mode-dependent:
the expander feeding the informative regularizers, per-dataset heads, the
cross-dataset projection bank, and the per-dataset uncertainty parameters.
A training mode is a row of :data:`MODES`, which names the parts it trains;
:func:`build_model` builds exactly those parts and :func:`compute_step_loss`
assembles the loss from them.  ``vanilla`` is independent heads under a plain
sum of cross-entropies.

:func:`run` drives one training run: the steps, the evaluations and the
checkpoints, written into a run directory.  Every command that trains goes
through it.

Every random draw is keyed by ``(seed, stream)`` where the stream encodes its
role (init vs. the batch of step ``t``), so a checkpoint only needs parameter
and moment arrays plus the step counter to resume bit-exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import losses as L
from .backbone import Backbone, BackboneConfig
from .data import MIXING, MixedBatch, SyntheticSuite, sample_mixed_batch
from .errors import ConfigError, ShapeError
from .nn import Module
from .optim import AdamW, lr_schedule
from .rng import Rng
from .tensor import Tensor, gather_rows, map_items, no_grad
from .tensor_io import Layout, commit, load_arrays, save_arrays, staged

_STREAM_INIT = 1
_STREAM_BATCH_BASE = 1 << 32


class ModeParts(NamedTuple):
    """The loss parts one training mode trains."""

    informative: bool  # expander plus the variance and covariance terms
    projection: Optional[str]  # None, "add" (bank added to the head logits) or "branch" (its own CE)
    sigma: bool  # uncertainty-weighted sum; without it the CEs are summed plainly


MODES = {
    "full": ModeParts(informative=True, projection="add", sigma=True),
    "vanilla": ModeParts(informative=False, projection=None, sigma=False),
    "wo_informative": ModeParts(informative=False, projection="add", sigma=True),
    "wo_informative_wo_projadd": ModeParts(informative=False, projection="branch", sigma=True),
    "wo_projection": ModeParts(informative=True, projection=None, sigma=True),
}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, schedule and batching settings, plus the training ``mode``: a key of :data:`MODES`."""

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
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"train.mode must be one of {tuple(MODES)}, got '{self.mode}'")
        if self.mixing not in MIXING:
            raise ConfigError(f"unknown mixing mode '{self.mixing}'")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0 <= self.warmup_steps < self.steps:
            raise ConfigError(
                f"warmup_steps must lie in [0, steps), got {self.warmup_steps} of {self.steps}"
            )


@dataclass(frozen=True)
class LossConfig:
    eps: float = 1e-4
    expander_hidden: int = 0  # 0 means twice the embedding width
    sigma_init: float = 1.0

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
    """Instantiate a model with exactly the components the mode trains.

    A mode that supervises the projection branch on its own needs another
    dataset to project from, so it refuses fewer than two with ConfigError.
    """
    parts = MODES[train_config.mode]
    if parts.projection == "branch" and len(class_counts) < 2:
        raise ConfigError(
            f"mode {train_config.mode} trains a separate projection branch, which needs "
            f"at least 2 datasets, got {len(class_counts)}"
        )
    rng = Rng(train_config.seed, stream=_STREAM_INIT)
    backbone = Backbone(backbone_config, rng)
    dim = backbone_config.embed_dim
    expander = L.Expander(dim, loss_config.hidden_for(dim), rng) if parts.informative else None
    heads = L.HeadBank(dim, class_counts, rng)
    projections = L.ProjectionBank(class_counts) if parts.projection else None
    sigma = L.SigmaParams(len(class_counts), loss_config.sigma_init) if parts.sigma else None
    return JointModel(backbone, heads, expander, projections, sigma, loss_config)


def compute_step_loss(
    model: JointModel, clips: Tensor, batch: MixedBatch, config: TrainConfig
) -> tuple[Tensor, L.LossReport]:
    """Forward pass of ``clips`` and the loss assembly of ``config.mode`` for one mixed batch.

    ``batch`` gives the dataset ids and labels of the rows of ``clips``; the
    clips come in as a tensor of their own so that the loss can also be
    differentiated with respect to them.
    """
    parts = MODES[config.mode]
    z = model.backbone(clips)
    per_dataset: dict[int, Tensor] = {}
    counts: dict[int, int] = {}
    for k in range(model.num_datasets):
        idx = np.flatnonzero(batch.dataset_ids == k)
        counts[k] = int(idx.size)
        if idx.size == 0:
            continue
        zk = gather_rows(z, idx)
        labels = batch.labels[idx]
        if parts.projection is None:
            lk = L.cross_entropy(model.heads(k, zk), labels)
        else:
            logits = model.heads.all_logits(zk)
            if parts.projection == "add":
                lk = L.cross_entropy(L.project_logits(k, logits, model.projections), labels)
            else:
                # Projection branches supervised directly, next to the plain head loss.
                own = L.cross_entropy(logits[k], labels)
                lk = own + L.cross_entropy(L.projection_only_logits(k, logits, model.projections), labels)
        per_dataset[k] = lk

    variance = covariance = None
    if parts.informative:
        z_exp = model.expander(z)
        variance = L.variance_loss(z_exp, model.loss_config.eps)
        covariance = L.covariance_loss(z_exp)

    return L.total_loss(variance, covariance, per_dataset, model.sigma, counts)


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
    # Written into every checkpoint manifest: the run's RunConfig.hash(), or
    # empty for a state built without one.
    config_hash: str = ""
    # Built by the first save or load (see :func:`_checkpoint_layout`).
    _layout: Optional[Layout] = field(default=None, repr=False, compare=False)

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
        total, report = compute_step_loss(state.model, Tensor(batch.clips), batch, cfg)
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
    across the tensor pool as independent items, each a row range of the
    suite's rendered split, so every batch's logits are those a serial loop
    over the same batches would give, for any worker count.
    """
    if batch_size < 1:
        raise ConfigError(f"eval batch size must be >= 1, got {batch_size}")
    splits = {spec.id: suite.split_arrays(spec.id, split) for spec in suite.specs}
    batches = [  # (dataset id, first row)
        (k, start) for k, (_, labels) in splits.items() for start in range(0, len(labels), batch_size)
    ]

    def hits(batch) -> tuple[int, int]:
        k, start = batch
        clips, labels = splits[k]
        truth = labels[start : start + batch_size]
        logits = model.heads(k, model.backbone(Tensor(clips[start : start + batch_size]))).data
        order = np.argsort(-logits, axis=1)
        top5 = order[:, : min(5, logits.shape[1])]
        return int((order[:, 0] == truth).sum()), int((top5 == truth[:, None]).any(axis=1).sum())

    with no_grad():
        counts = map_items(hits, batches)
    totals = {spec.id: [0, 0, len(splits[spec.id][1])] for spec in suite.specs}
    for (k, _), (hits1, hits5) in zip(batches, counts):
        total = totals[k]
        total[0] += hits1
        total[1] += hits5
    return {k: EvalResult(top1=h1 / n, top5=h5 / n, count=n) for k, (h1, h5, n) in totals.items()}


# -- checkpointing ------------------------------------------------------------


def _manifest_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def _checkpoint_layout(state: TrainState) -> Layout:
    """The file a checkpoint of ``state`` is: its parameter arrays, then its moment views.

    The parameters are the optimizer's, which are the model's
    ``named_parameters`` in order (see :meth:`TrainState.create`), so no
    module tree is walked.  Built on the first call and kept, so later saves
    and loads pack each header once.  It is built anew when some ``p.data``
    is no longer the array it was built from: a parameter rebound under the
    optimizer's Rebind rule, or converted by ``to_dtype``.  Like the
    optimizer, it assumes the model keeps the parameter tensors it was
    created with.
    """
    params = state.opt.params
    layout = state._layout
    # The parameters come first in the layout, so zip stops at the moments.
    if layout is None or any(p.data is not data for p, data in zip(params.values(), layout.arrays)):
        arrays = {name: p.data for name, p in params.items()}
        arrays.update(state.opt.named_moments())
        layout = state._layout = Layout(arrays)
    return layout


def _entries_in_layout_order(layout: Layout, num_params: int, arrays: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """The parsed ``arrays`` that ``layout`` names, in its order, checked but not copied.

    The layout's first ``num_params`` entries are the parameters and the rest
    the optimizer moments.  A missing or off-shape entry raises ShapeError,
    parameters first; extra entries are ignored.
    """
    names, targets = layout.names, layout.arrays
    missing = sorted(set(names[:num_params]) - set(arrays))
    if missing:
        raise ShapeError(f"state is missing parameters: {missing}")
    for name, target in zip(names[:num_params], targets):
        if arrays[name].shape != target.shape:
            raise ShapeError(f"parameter '{name}' has shape {target.shape}, state has {arrays[name].shape}")
    missing = [key for key in names[num_params:] if key not in arrays]
    if missing:
        raise ShapeError(f"state is missing {len(missing)} optimizer moment arrays, first '{missing[0]}'")
    for key, target in zip(names[num_params:], targets[num_params:]):
        if arrays[key].shape != target.shape:
            raise ShapeError(f"optimizer entry '{key}' has shape {target.shape}, state has {arrays[key].shape}")
    return [arrays[name] for name in names]


def save_checkpoint(state: TrainState, path) -> None:
    """Write ``<path>`` (arrays) and ``<path>.json`` (manifest), replacing both as a whole.

    The arrays are written through the state's :func:`_checkpoint_layout`,
    straight from the parameter and moment arenas, and each file goes to its
    staged name first.  :func:`tensor_io.commit` then renames the arrays and
    then the manifest into place, so a checkpoint with a manifest is
    complete.  If anything fails, the files already at the two paths are left
    as they were and no staged file remains.
    """
    path = Path(path)
    manifest_path = _manifest_path(path)
    layout = _checkpoint_layout(state)
    manifest = {"step": state.step, "config_hash": state.config_hash}
    try:
        save_arrays(staged(path), layout)
        staged(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n")
        commit([path, manifest_path])
    except BaseException:
        for target in (path, manifest_path):
            staged(target).unlink(missing_ok=True)
        raise


def load_checkpoint(state: TrainState, path) -> TrainState:
    """Restore parameters, optimizer moments, and the step counter in place.

    The manifest and every parameter and moment entry are checked before the
    first copy, so a refused checkpoint leaves the state as it was.  A
    manifest without a non-negative integer ``step`` raises ConfigError.  A
    file that is the state's :func:`_checkpoint_layout` byte for byte outside
    its payloads is copied entry by entry into the layout's arrays; any other
    file is parsed, and the entries the layout names are checked by shape
    (extra entries are ignored) and copied into the layout's arrays.
    """
    path = Path(path)
    layout = _checkpoint_layout(state)
    arrays = load_arrays(path, layout)
    manifest = json.loads(_manifest_path(path).read_text(encoding="utf-8"))
    step = manifest.get("step") if isinstance(manifest, dict) else None
    if type(step) is not int or step < 0:
        raise ConfigError(f"manifest has no non-negative integer 'step', got {step!r}")
    if isinstance(arrays, list):
        layout.fill(arrays)
    else:
        sources = _entries_in_layout_order(layout, len(state.opt.params), arrays)
        for target, source in zip(layout.arrays, sources):
            target[...] = source
    state.step = step
    state.opt.t = step
    return state


# -- runs -----------------------------------------------------------------------


def run(state: TrainState, out, eval_every: int, eval_batch: int, checkpoint_every: int) -> dict[int, EvalResult]:
    """Train ``state`` for ``state.config.steps`` steps, writing the run into the directory ``out``.

    ``metrics.ndjson`` gets one ``step`` record per step, then one ``eval``
    record per dataset (test split, batches of ``eval_batch``) after every
    ``eval_every`` steps and after the last.  ``checkpoint_<step>.mttn`` is
    written after every ``checkpoint_every`` steps and after the last.  A
    cadence of 0 means after the last step only.  Returns the final evaluation.
    """
    out = Path(out)
    steps = state.config.steps
    with open(out / "metrics.ndjson", "w") as metrics:

        def write(record: dict) -> None:
            metrics.write(json.dumps(record) + "\n")

        def write_evals(step: int) -> dict[int, EvalResult]:
            results = evaluate(state.model, state.suite, batch_size=eval_batch)
            for spec in state.suite.specs:
                r = results[spec.id]
                write({"kind": "eval", "step": step, "dataset": spec.name, "top1": r.top1, "top5": r.top5})
            return results

        def on_report(step: int, lr: float, report: L.LossReport) -> None:
            write(
                {
                    "kind": "step",
                    "step": step,
                    "lr": lr,
                    "total": report.total,
                    "variance": report.variance,
                    "covariance": report.covariance,
                    "ce": {str(k): v for k, v in report.per_dataset.items()},
                    "sigma": {str(k): v for k, v in (report.sigmas or {}).items()},
                    "counts": {str(k): v for k, v in report.counts.items()},
                }
            )
            done = step + 1
            if eval_every and done % eval_every == 0 and done < steps:
                write_evals(done)
            if checkpoint_every and done % checkpoint_every == 0 and done < steps:
                save_checkpoint(state, out / f"checkpoint_{done}.mttn")

        train_steps(state, steps, on_report)
        results = write_evals(state.step)
    save_checkpoint(state, out / f"checkpoint_{state.step}.mttn")
    return results
