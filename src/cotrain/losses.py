"""Loss components for multi-dataset co-training.

Three families live here:

* an *informative* regularizer on expanded embeddings: a variance hinge that
  keeps every embedding dimension's batch standard deviation near one, plus a
  covariance penalty on off-diagonal second moments;
* per-dataset classification heads with a bank of directed cross-dataset
  projection matrices: logits for dataset ``k`` are the head's own output plus
  every other head's output mapped through a learned ``(C_k, C_i)`` matrix;
* an uncertainty-weighted combination ``sum_k L_k / (2 sigma_k^2) + ln sigma_k``
  over whatever datasets are present in the batch, with sigma parameterized
  as ``exp(log_sigma)``.

The projection bank is a training-time device only; evaluation uses each
dataset's own head.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import (
    BatchSizeError,
    ConfigError,
    ContractError,
    LabelError,
    NumericError,
    RegistryError,
)
from .nn import Linear, Mlp, Module, zeros_param
from .rng import Rng
from .tensor import Tensor


class Expander(Module):
    """Two-layer GELU MLP mapping embeddings to the space the regularizers see."""

    def __init__(self, dim: int, hidden: int, rng: Rng):
        self.net = Mlp(dim, hidden, dim, rng)

    def __call__(self, z: Tensor) -> Tensor:
        if z.ndim != 2 or z.shape[0] < 2:
            raise BatchSizeError(
                f"expander needs a (B>=2, d) batch for the regularizers, got {z.shape}"
            )
        return self.net(z)


def variance_loss(z_exp: Tensor, eps: float = 1e-4) -> Tensor:
    """Mean hinge on per-dimension batch standard deviation.

    Computes ``s_j = sqrt(var_j + eps)`` with the unbiased ``B - 1`` divisor
    and averages ``max(0, 1 - s_j)`` over dimensions.
    """
    b, _ = _check_reg_input(z_exp, "variance_loss")
    mean = z_exp.mean(axis=0, keepdims=True)
    dev = z_exp - mean
    var = (dev * dev).sum(axis=0) / float(b - 1)
    std = T.sqrt(var + eps)
    return T.relu(1.0 - std).mean()


def covariance_loss(z_exp: Tensor) -> Tensor:
    """Mean of squared off-diagonal entries of the batch covariance, scaled by 1/d."""
    b, d = _check_reg_input(z_exp, "covariance_loss")
    mean = z_exp.mean(axis=0, keepdims=True)
    dev = z_exp - mean
    cov = dev.transpose(1, 0) @ dev / float(b - 1)
    off_diag = 1.0 - np.eye(d, dtype=z_exp.dtype)
    return ((cov * off_diag) ** 2).sum() / float(d)


def _check_reg_input(z_exp: Tensor, name: str) -> tuple[int, int]:
    if z_exp.ndim != 2:
        raise ContractError(f"{name} expects a (B, d) matrix, got {z_exp.shape}")
    b, d = z_exp.shape
    if b < 2:
        raise BatchSizeError(f"{name} needs at least two rows, got {b}")
    if d < 1:
        raise ContractError(f"{name} needs at least one embedding dimension")
    return b, d


class HeadBank(Module):
    """One linear classification head per dataset, indexed by dataset id."""

    def __init__(self, dim: int, class_counts: Sequence[int], rng: Rng):
        self.heads = [Linear(dim, c, rng) for c in class_counts]

    def _children(self):
        for k, head in enumerate(self.heads):
            yield str(k), head

    def __call__(self, k: int, z: Tensor) -> Tensor:
        return self.heads[k](z)

    def all_logits(self, z: Tensor) -> dict[int, Tensor]:
        return {k: head(z) for k, head in enumerate(self.heads)}

    @property
    def num_datasets(self) -> int:
        return len(self.heads)


class ProjectionBank(Module):
    """Zero-initialized directed maps between head logit spaces.

    ``pair(i, k)`` holds the ``(C_k, C_i)`` matrix taking dataset ``i`` logits
    into dataset ``k``'s label space.  Both directions of every ordered pair
    exist and are independent parameters.
    """

    def __init__(self, class_counts: Sequence[int]):
        self.class_counts = tuple(class_counts)
        self._mats: dict[tuple[int, int], Tensor] = {}
        for k, ck in enumerate(self.class_counts):
            for i, ci in enumerate(self.class_counts):
                if i != k:
                    self._mats[(i, k)] = zeros_param((ck, ci))

    def pair(self, i: int, k: int) -> Tensor:
        try:
            return self._mats[(i, k)]
        except KeyError:
            raise RegistryError(f"no projection for pair ({i} -> {k})") from None

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._mats)

    def _children(self):
        return iter(())

    def _own_params(self):
        for (i, k), mat in sorted(self._mats.items()):
            yield f"{i}to{k}", mat

    def zero_(self) -> None:
        for mat in self._mats.values():
            mat.data[...] = 0.0


def project_logits(k: int, logits: Mapping[int, Tensor], bank: ProjectionBank) -> Tensor:
    """Own logits plus every other head's logits mapped through the bank.

    ``logits`` must contain an entry for every dataset, all evaluated on the
    same rows (the samples belonging to dataset ``k``).
    """
    missing = [i for i in range(len(bank.class_counts)) if i not in logits]
    if missing:
        raise ContractError(f"project_logits for dataset {k} missing head outputs {missing}")
    return _projected_sum(k, logits, bank, logits[k])


def projection_only_logits(k: int, logits: Mapping[int, Tensor], bank: ProjectionBank) -> Tensor:
    """The cross-dataset projection sum alone, without the own-head term."""
    out = _projected_sum(k, logits, bank, None)
    if out is None:
        raise ContractError("projection-only logits need at least two datasets")
    return out


def _projected_sum(
    k: int, logits: Mapping[int, Tensor], bank: ProjectionBank, start: Optional[Tensor]
) -> Optional[Tensor]:
    """``start`` plus each other head's logits mapped into ``k``, added by dataset id; ``None`` if empty."""
    out = start
    for i in sorted(logits):
        if i == k:
            continue
        term = logits[i] @ bank.pair(i, k).transpose(1, 0)
        out = term if out is None else out + term
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over a non-empty batch."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractError(f"cross_entropy expects (B, C) logits, got {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise LabelError(f"labels shape {labels.shape} does not match batch {b}")
    if b == 0:
        raise BatchSizeError("cross_entropy needs at least one row")
    if labels.min() < 0 or labels.max() >= c:
        raise LabelError(
            f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]"
        )
    logp = T.log_softmax(logits, axis=1)
    onehot = np.zeros((b, c), dtype=logits.dtype)
    onehot[np.arange(b), labels] = 1.0
    return -(logp * onehot).sum() / float(b)


class SigmaParams(Module):
    """Per-dataset uncertainty, parameterized as log sigma (zero-initialized)."""

    def __init__(self, num_datasets: int, sigma_init: float = 1.0):
        if sigma_init <= 0:
            raise ConfigError(f"sigma_init must be positive, got {sigma_init}")
        init = math.log(sigma_init) * np.ones(num_datasets, dtype=np.float32)
        self.log_sigma = Tensor(init, requires_grad=True)

    def sigma(self) -> Tensor:
        return T.exp(self.log_sigma)


def _ordered_sum(terms: Iterable[Tensor]) -> Tensor:
    """The terms added left to right; a generator's terms are built as the sum reaches each one."""
    total = None
    for term in terms:
        total = term if total is None else total + term
    if total is None:
        raise ContractError("a loss sum needs at least one dataset loss")
    return total


def uncertainty_weighted_sum(per_dataset: Mapping[int, Tensor], sigma: Tensor) -> Tensor:
    """``sum_k L_k / (2 sigma_k^2) + ln sigma_k`` over the datasets present, by dataset id."""

    def term(k):
        sk = T.gather_rows(sigma, np.array([k]))
        return per_dataset[k] / (2.0 * sk * sk) + T.log(sk)

    return _ordered_sum(map(term, sorted(per_dataset))).sum()


@dataclass
class LossReport:
    """Float snapshot of one step's loss components."""

    total: float
    variance: float
    covariance: float
    per_dataset: dict[int, float]
    sigmas: Optional[dict[int, float]]
    counts: dict[int, int] = field(default_factory=dict)

    def check_finite(self, step: Optional[int] = None) -> None:
        where = f" at step {step}" if step is not None else ""
        items = [("total", self.total), ("variance", self.variance), ("covariance", self.covariance)]
        items += [(f"ce[{k}]", v) for k, v in self.per_dataset.items()]
        if self.sigmas:
            items += [(f"sigma[{k}]", v) for k, v in self.sigmas.items()]
        for name, value in items:
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss component '{name}'{where}: {value}")


def total_loss(
    variance: Optional[Tensor],
    covariance: Optional[Tensor],
    per_dataset: Mapping[int, Tensor],
    sigma_params: Optional[SigmaParams],
    counts: Optional[Mapping[int, int]] = None,
) -> tuple[Tensor, LossReport]:
    """Combine loss components into the training scalar plus a report.

    Datasets absent from ``per_dataset`` contribute nothing (their sigmas get
    no gradient this step).  With ``sigma_params=None`` the branch losses are
    summed unweighted, which is the vanilla multi-head baseline.
    """
    if sigma_params is None:
        total = _ordered_sum(per_dataset[k] for k in sorted(per_dataset))
        sigmas = None
    else:
        sigma = sigma_params.sigma()
        total = uncertainty_weighted_sum(per_dataset, sigma)
        sigmas = {k: float(sigma.data[k]) for k in sorted(per_dataset)}
    if variance is not None:
        total = total + variance
    if covariance is not None:
        total = total + covariance
    total = total.reshape(())

    report = LossReport(
        total=float(total.data),
        variance=float(variance.data) if variance is not None else 0.0,
        covariance=float(covariance.data) if covariance is not None else 0.0,
        per_dataset={k: float(v.data) for k, v in sorted(per_dataset.items())},
        sigmas=sigmas,
        counts=dict(counts or {}),
    )
    return total, report


def top_projection_pairs(
    bank: ProjectionBank,
    i: int,
    k: int,
    n: int,
    class_names_i: Optional[Sequence[str]] = None,
    class_names_k: Optional[Sequence[str]] = None,
) -> list[tuple[str, str, float]]:
    """The ``n`` largest entries of the ``i -> k`` projection, as readable pairs.

    Returns ``(source class of i, target class of k, weight)`` triples sorted
    by weight descending; ties break by (target, source) index ascending.
    ``n`` is clamped to the matrix size.
    """
    if n < 1:
        raise ConfigError(f"top_projection_pairs needs n >= 1, got {n}")
    w = bank.pair(i, k).data
    ck, ci = w.shape
    names_i = list(class_names_i) if class_names_i is not None else [str(c) for c in range(ci)]
    names_k = list(class_names_k) if class_names_k is not None else [str(c) for c in range(ck)]
    entries = sorted(
        ((row, col) for row in range(ck) for col in range(ci)),
        key=lambda rc: (-w[rc[0], rc[1]], rc[0], rc[1]),
    )
    return [(names_i[col], names_k[row], float(w[row, col])) for row, col in entries[: min(n, ck * ci)]]


def alias_agreement(bank: ProjectionBank, alias_map, pairs) -> tuple[int, int]:
    """``(hits, total)`` over the alias-mapped classes of each ``(i, k)`` in ``pairs``; a hit's column argmax is its alias."""
    hits = total = 0
    for i, k in pairs:
        weights = bank.pair(i, k).data
        for src, dst in alias_map.mapped_classes(i, k).items():
            total += 1
            hits += int(np.argmax(weights[:, src]) == dst)
    return hits, total
