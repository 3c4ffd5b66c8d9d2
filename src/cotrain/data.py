"""Synthetic multi-dataset video suite.

Each dataset renders short clips of a Gaussian blob drifting across a toroidal
frame.  A clip's class determines an underlying motion *concept* (drift
direction, speed, blob width); datasets impose their own rendering bias on top
(background offset, sensor noise, frame decimation, blob scale), so the same
concept looks different across datasets.  Concept assignments are permuted per
dataset, and classes in different datasets that share a concept are recorded
in a directed alias map, which is the ground truth the cross-dataset
projections are expected to recover.

Clip synthesis is a pure function of ``(suite seed, dataset id, sample id)``;
train and test splits partition the sample-id space, so no id appears in both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BatchSizeError, ConfigError, RegistryError
from .rng import Rng

_DATASET_NAMES = ("aster", "briar", "cedar", "dahlia", "elder", "fern", "garnet", "hazel")

# Rendering-bias templates cycled over dataset ids when none are configured.
# Default per-dataset recording biases: (bg_offset, noise_std, decimation,
# blob_scale).  Offsets above ~0.08 bury the motion signal under a common-mode
# direction in the patch embedding and make datasets unlearnable at toy scale,
# so the templates stay below that.  None sit at 0.00 either: a completely
# clean dataset gives plain cross-entropy an easy foothold that masks the
# regularizer's stabilizing effect in ablation comparisons.
_BIAS_TEMPLATES = (
    (0.05, 0.02, 1, 1.00),
    (0.04, 0.05, 1, 1.00),
    (0.05, 0.04, 2, 0.80),
    (0.05, 0.05, 1, 1.30),
)

_BLOB_AMPLITUDE = 1.0
_BASE_SIGMA = 2.0


@dataclass(frozen=True)
class BiasProfile:
    bg_offset: float = 0.0
    noise_std: float = 0.0
    decimation: int = 1
    blob_scale: float = 1.0

    def __post_init__(self):
        if self.decimation < 1:
            raise ConfigError(f"decimation must be >= 1, got {self.decimation}")
        if self.noise_std < 0 or self.blob_scale <= 0:
            raise ConfigError(f"invalid bias profile {self}")


@dataclass(frozen=True)
class DatasetSpec:
    id: int
    name: str
    num_classes: int
    class_names: tuple[str, ...]
    bias: BiasProfile
    train_size: int
    test_size: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"dataset '{self.name}' needs >= 2 classes")
        if len(self.class_names) != self.num_classes:
            raise ConfigError(f"dataset '{self.name}': class name count mismatch")
        if self.train_size < 1 or self.test_size < 1:
            raise ConfigError(f"dataset '{self.name}' has an empty split")


@dataclass(frozen=True)
class AliasEntry:
    """Directed statement that ``src`` class renders a concept covered by ``dst`` class."""

    src_dataset: int
    src_class: int
    dst_dataset: int
    dst_class: int


class AliasMap:
    def __init__(self, entries: Sequence[AliasEntry]):
        self.entries = tuple(entries)
        self._by_pair: dict[tuple[int, int], dict[int, int]] = {}
        for e in self.entries:
            self._by_pair.setdefault((e.src_dataset, e.dst_dataset), {})[e.src_class] = e.dst_class

    def lookup(self, src_dataset: int, src_class: int, dst_dataset: int) -> Optional[int]:
        return self._by_pair.get((src_dataset, dst_dataset), {}).get(src_class)

    def mapped_classes(self, src_dataset: int, dst_dataset: int) -> dict[int, int]:
        return dict(self._by_pair.get((src_dataset, dst_dataset), {}))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[AliasEntry]:
        return iter(self.entries)


@dataclass
class MixedBatch:
    clips: np.ndarray  # (B, T, H, W, C)
    dataset_ids: np.ndarray  # (B,) int
    labels: np.ndarray  # (B,) int
    sample_ids: np.ndarray  # (B,) int


def _concept_params(concept: int, concept_count: int) -> tuple[float, float, float]:
    """Direction, speed, and blob width for one motion concept."""
    theta = 2.0 * math.pi * concept / concept_count
    speed = 1.25 + 0.5 * (concept % 2)
    sigma = _BASE_SIGMA
    return theta, speed, sigma


class SyntheticSuite:
    """Holds dataset specs, the concept assignment, and the alias ground truth."""

    def __init__(
        self,
        seed: int,
        specs: Sequence[DatasetSpec],
        concept_count: int,
        assignment: Sequence[Sequence[int]],
        clip_shape: tuple[int, int, int, int] = (8, 16, 16, 1),
    ):
        self.seed = int(seed)
        self.specs = tuple(specs)
        self.concept_count = concept_count
        self.assignment = tuple(tuple(row) for row in assignment)
        self.clip_shape = clip_shape
        self.alias_map = _build_alias_map(self.assignment)
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    # -- sample space --------------------------------------------------------

    def label_of(self, dataset_id: int, sample_id: int) -> int:
        return sample_id % self.specs[dataset_id].num_classes

    def train_ids(self, dataset_id: int) -> np.ndarray:
        return np.arange(self.specs[dataset_id].train_size)

    def test_ids(self, dataset_id: int) -> np.ndarray:
        spec = self.specs[dataset_id]
        return np.arange(spec.train_size, spec.train_size + spec.test_size)

    # -- synthesis -----------------------------------------------------------

    def clip(self, dataset_id: int, sample_id: int) -> np.ndarray:
        """Render one clip; deterministic in (suite seed, dataset id, sample id)."""
        key = (dataset_id, sample_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        spec = self.specs[dataset_id]
        label = self.label_of(dataset_id, sample_id)
        concept = self.assignment[dataset_id][label]
        rng = Rng(self.seed, stream=(dataset_id << 40) ^ sample_id)
        data = _render_clip(rng, concept, self.concept_count, spec.bias, self.clip_shape)
        self._cache[key] = data
        return data

    def split_ids(self, dataset_id: int, split: str) -> np.ndarray:
        """Sample ids of the ``train`` or ``test`` split."""
        if split == "train":
            return self.train_ids(dataset_id)
        if split == "test":
            return self.test_ids(dataset_id)
        raise ConfigError(f"split must be 'train' or 'test', got '{split}'")

    def split_arrays(self, dataset_id: int, split: str) -> tuple[np.ndarray, np.ndarray]:
        """All clips and labels of one split, stacked."""
        ids = self.split_ids(dataset_id, split)
        clips = np.stack([self.clip(dataset_id, int(i)) for i in ids])
        labels = np.array([self.label_of(dataset_id, int(i)) for i in ids], dtype=np.int64)
        return clips, labels


def _render_clip(
    rng: Rng,
    concept: int,
    concept_count: int,
    bias: BiasProfile,
    clip_shape: tuple[int, int, int, int],
) -> np.ndarray:
    t_len, height, width, channels = clip_shape
    theta, speed, sigma = _concept_params(concept, concept_count)
    sigma *= bias.blob_scale
    vx = speed * math.cos(theta)
    vy = speed * math.sin(theta)

    x0 = float(rng.uniform(low=0.0, high=width))
    y0 = float(rng.uniform(low=0.0, high=height))
    steps = np.arange(t_len, dtype=np.float64) * bias.decimation
    px = (x0 + vx * steps) % width  # (T,)
    py = (y0 + vy * steps) % height

    ys = np.arange(height, dtype=np.float64)[None, :, None]
    xs = np.arange(width, dtype=np.float64)[None, None, :]
    dy = np.abs(ys - py[:, None, None])
    dy = np.minimum(dy, height - dy)
    dx = np.abs(xs - px[:, None, None])
    dx = np.minimum(dx, width - dx)
    frames = _BLOB_AMPLITUDE * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))

    frames = frames + bias.bg_offset
    if bias.noise_std > 0:
        frames = frames + rng.normal((t_len, height, width), std=bias.noise_std)
    frames = np.clip(frames, 0.0, 1.0)
    return np.repeat(frames[..., None], channels, axis=-1).astype(np.float32)


def _build_alias_map(assignment: Sequence[Sequence[int]]) -> AliasMap:
    entries = []
    for i, row_i in enumerate(assignment):
        for k, row_k in enumerate(assignment):
            if i == k:
                continue
            for a, ga in enumerate(row_i):
                for b, gb in enumerate(row_k):
                    if ga == gb:
                        entries.append(AliasEntry(i, a, k, b))
    return AliasMap(entries)


def generate_synthetic_suite(
    seed: int,
    num_datasets: int,
    class_counts: Sequence[int],
    train_sizes: Sequence[int],
    test_sizes: Sequence[int],
    concept_count: Optional[int] = None,
    shared_classes: Optional[int] = None,
    biases: Optional[Sequence[BiasProfile]] = None,
    clip_shape: tuple[int, int, int, int] = (8, 16, 16, 1),
) -> SyntheticSuite:
    """Build a suite of ``num_datasets`` biased views of a shared concept pool.

    The first ``shared_classes`` classes of every dataset draw from the same
    ``shared_classes`` concepts, assigned through a per-dataset permutation
    (so the alias map is a nontrivial correspondence, not the identity).
    Remaining classes get concepts unique to their dataset.  By default all
    classes are shared.
    """
    if num_datasets < 1:
        raise ConfigError(f"need at least one dataset, got {num_datasets}")
    class_counts = list(class_counts)
    if len(class_counts) != num_datasets:
        raise ConfigError("class_counts length must equal num_datasets")
    if min(class_counts) < 2:
        raise ConfigError("every dataset needs at least 2 classes")
    shared = min(class_counts) if shared_classes is None else shared_classes
    if shared < 0 or shared > min(class_counts):
        raise ConfigError(
            f"shared_classes={shared} must lie in [0, {min(class_counts)}]"
        )
    needed = shared + sum(c - shared for c in class_counts)
    concepts = max(class_counts) if concept_count is None else concept_count
    if concepts < max(class_counts):
        raise ConfigError(
            f"concept pool ({concepts}) smaller than the largest class count ({max(class_counts)})"
        )
    if concepts < needed:
        raise ConfigError(
            f"concept pool ({concepts}) too small for {needed} distinct assignments; "
            f"raise concept_count or shared_classes"
        )

    assignment: list[list[int]] = []
    next_unique = shared
    for k in range(num_datasets):
        perm = Rng(seed, stream=1_000 + k).permutation(shared) if shared else np.array([], dtype=int)
        row = [int(perm[c]) for c in range(shared)]
        for _ in range(class_counts[k] - shared):
            row.append(next_unique)
            next_unique += 1
        assignment.append(row)

    if biases is None:
        biases = [BiasProfile(*_BIAS_TEMPLATES[k % len(_BIAS_TEMPLATES)]) for k in range(num_datasets)]
    elif len(biases) != num_datasets:
        raise ConfigError("biases length must equal num_datasets")

    specs = []
    for k in range(num_datasets):
        name = _DATASET_NAMES[k % len(_DATASET_NAMES)]
        if k >= len(_DATASET_NAMES):
            name = f"{name}{k}"
        class_names = tuple(f"{name}/{c:02d}" for c in range(class_counts[k]))
        specs.append(
            DatasetSpec(
                id=k,
                name=name,
                num_classes=class_counts[k],
                class_names=class_names,
                bias=biases[k],
                train_size=int(train_sizes[k]),
                test_size=int(test_sizes[k]),
            )
        )
    return SyntheticSuite(seed, specs, concepts, assignment, clip_shape)


class DatasetRegistry:
    """Id- and name-addressable view of the suite's datasets."""

    def __init__(self, specs: Sequence[DatasetSpec]):
        self._by_id: dict[int, DatasetSpec] = {}
        self._by_name: dict[str, DatasetSpec] = {}
        for spec in specs:
            if spec.id in self._by_id:
                raise RegistryError(f"duplicate dataset id {spec.id}")
            if spec.name in self._by_name:
                raise RegistryError(f"duplicate dataset name '{spec.name}'")
            self._by_id[spec.id] = spec
            self._by_name[spec.name] = spec

    def by_id(self, dataset_id: int) -> DatasetSpec:
        try:
            return self._by_id[dataset_id]
        except KeyError:
            raise RegistryError(f"unknown dataset id {dataset_id}") from None

    def by_name(self, name: str) -> DatasetSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise RegistryError(f"unknown dataset name '{name}'") from None

    def __iter__(self) -> Iterator[DatasetSpec]:
        return iter(sorted(self._by_id.values(), key=lambda s: s.id))

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(spec.num_classes for spec in self)


def sample_mixed_batch(
    rng: Rng,
    batch_size: int,
    suite: SyntheticSuite,
    mixing: str = "proportional",
) -> MixedBatch:
    """Draw a with-replacement batch across datasets.

    ``proportional`` picks datasets with probability proportional to their
    train-split size; ``uniform`` picks them equally.  Sample ids are uniform
    within the chosen dataset's train split.
    """
    if batch_size < 2:
        raise BatchSizeError(f"mixed batches need batch_size >= 2, got {batch_size}")
    sizes = np.array([spec.train_size for spec in suite.specs], dtype=np.float64)
    if (sizes < 1).any():
        raise ConfigError("cannot sample from an empty train split")
    if mixing == "proportional":
        probs = sizes / sizes.sum()
    elif mixing == "uniform":
        probs = np.full(len(sizes), 1.0 / len(sizes))
    else:
        raise ConfigError(f"unknown mixing mode '{mixing}'")
    dataset_ids = rng.choice(len(suite.specs), size=batch_size, p=probs)
    picks = rng.uniform(shape=batch_size)
    sample_ids = np.empty(batch_size, dtype=np.int64)
    labels = np.empty(batch_size, dtype=np.int64)
    clips = np.empty((batch_size, *suite.clip_shape), dtype=np.float32)
    for row, k in enumerate(dataset_ids):
        k = int(k)
        sid = int(picks[row] * suite.specs[k].train_size)
        sample_ids[row] = sid
        labels[row] = suite.label_of(k, sid)
        clips[row] = suite.clip(k, sid)
    return MixedBatch(
        clips=clips,
        dataset_ids=np.asarray(dataset_ids, dtype=np.int64),
        labels=labels,
        sample_ids=sample_ids,
    )
