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

Rendering.  A clip is rendered with the rest of its split: the first
``SyntheticSuite.clip`` or ``split_arrays`` that misses renders the whole
train or test split of that dataset into one float32 ``(N, T, H, W, C)``
array.  The suite keeps that array per ``(dataset id, split)``, which
``split_arrays`` returns as a read-only view, and one row view of it per
``(dataset id, sample id)``, which ``clip`` returns.  The split's ids are cut
into chunks of about ``RENDER_CHUNK`` frame elements, run as the items of
``tensor.map_items``, so on two CPUs two chunks render at once; each item
writes its own rows.  Inside a chunk every clip draws its start and its
sensor noise from one generator re-keyed to the clip's own stream
``(dataset id << 40) ^ sample id``, and the frames of the whole chunk are then
computed at once, in place, with each clip's elementwise operations in the
order of a one-clip render (``_render_clip`` is the one-clip case of the
same function).  A clip's bits therefore do not depend on the chunking, the
worker count or the order of the misses.  A miss inside an item of
``map_items`` renders the split in that thread, its chunks in order.  Misses
render under a per-suite lock, so a split renders once even when several
threads miss on it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import BatchSizeError, ConfigError
from .rng import Rng
from .tensor import map_items

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

# Frame elements (T*H*W) per item of ``tensor.map_items`` when a split
# renders, so a chunk holds RENDER_CHUNK // (T*H*W) clips, at least one: 32
# clips of 8x16x16, 8 of 8x32x32.  An item keeps two float64 buffers of this
# many elements (frames and noise) while it runs.  Measured on a 2-core Xeon
# VM (numpy 2.4.6, 2 workers), rendering every clip of the benchmark's
# suites, median of 18 renders interleaved in one process, at 2^14 / 2^15 /
# 2^16 elements an item: default_full 54.5 / 48.4 / 45.3 ms, many_heads_full
# 95.6 / 84.8 / 78.9 ms, wide_clip_vanilla 168.9 / 144.1 / 134.1 ms, against
# 92.8, 180.3 and 323.4 ms for the clip-by-clip renderer it replaced.  One
# worker at 2^16 took 55.8, 102.1 and 234.1 ms.  At 2^17 many_heads_full's
# 64-clip test splits make one item each and leave a core idle.  The normal
# noise draws are the floor: 35-55 us of an 8x16x16 clip's 55-90 us.
RENDER_CHUNK = 1 << 16


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
        self._alias_map: Optional[AliasMap] = None
        self._splits: dict[tuple[int, str], np.ndarray] = {}  # (dataset id, split) -> its clips
        self._cache: dict[tuple[int, int], np.ndarray] = {}  # (dataset id, sample id) -> row view
        self._render_lock = threading.Lock()

    @property
    def alias_map(self) -> AliasMap:
        """The alias ground truth, built on first use."""
        if self._alias_map is None:
            self._alias_map = _build_alias_map(self.assignment)
        return self._alias_map

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
        """One clip, a pure function of (suite seed, dataset id, sample id).

        The first miss on a split renders that whole split (see the module
        docstring) and caches one row view of it per clip, so every later
        call returns the same array.  A miss inside an item of
        ``tensor.map_items`` renders in that thread, its chunks in order; a
        thread that misses on a split another thread is rendering waits for
        it, so each split renders once.  An id outside both splits raises
        ``ConfigError``.
        """
        key = (dataset_id, sample_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._rendered(dataset_id, self._split_of(dataset_id, sample_id))
        return self._cache[key]

    def _rendered(self, dataset_id: int, split: str) -> np.ndarray:
        """The array of one split's clips, rendered on first use."""
        key = (dataset_id, split)
        clips = self._splits.get(key)
        if clips is None:
            with self._render_lock:
                if key not in self._splits:
                    self._render_split(dataset_id, split)
            clips = self._splits[key]
        return clips

    def _split_of(self, dataset_id: int, sample_id: int) -> str:
        spec = self.specs[dataset_id]
        if 0 <= sample_id < spec.train_size:
            return "train"
        if spec.train_size <= sample_id < spec.train_size + spec.test_size:
            return "test"
        raise ConfigError(
            f"dataset '{spec.name}' ({dataset_id}) has no sample id {sample_id}; "
            f"valid ids are 0..{spec.train_size + spec.test_size - 1}"
        )

    def _render_split(self, dataset_id: int, split: str) -> None:
        """Render every clip of one split into one array, a chunk per item across the pool."""
        spec = self.specs[dataset_id]
        ids = self.split_ids(dataset_id, split).tolist()
        streams = [(dataset_id << 40) ^ sid for sid in ids]
        concepts = [self.assignment[dataset_id][self.label_of(dataset_id, sid)] for sid in ids]
        clips = np.empty((len(ids), *self.clip_shape), dtype=np.float32)
        t_len, height, width, _ = self.clip_shape
        per_item = max(1, RENDER_CHUNK // (t_len * height * width))

        def render(rows: slice) -> None:
            rng = Rng(self.seed)
            _render_clips(map(rng.rekey, streams[rows]), concepts[rows], self.concept_count, spec.bias, clips[rows])

        map_items(render, [slice(start, start + per_item) for start in range(0, len(ids), per_item)])
        for sid, view in zip(ids, clips):
            self._cache[(dataset_id, sid)] = view
        self._splits[(dataset_id, split)] = clips

    def split_ids(self, dataset_id: int, split: str) -> np.ndarray:
        """Sample ids of the ``train`` or ``test`` split."""
        if split == "train":
            return self.train_ids(dataset_id)
        if split == "test":
            return self.test_ids(dataset_id)
        raise ConfigError(f"split must be 'train' or 'test', got '{split}'")

    def split_arrays(self, dataset_id: int, split: str) -> tuple[np.ndarray, np.ndarray]:
        """All clips of one split in id order, as a read-only view of the rendered split, and their labels."""
        ids = self.split_ids(dataset_id, split)
        clips = self._rendered(dataset_id, split).view()
        clips.flags.writeable = False
        return clips, ids % self.specs[dataset_id].num_classes


def _render_clip(
    rng: Rng,
    concept: int,
    concept_count: int,
    bias: BiasProfile,
    clip_shape: tuple[int, int, int, int],
) -> np.ndarray:
    """One clip of ``clip_shape``, drawn from ``rng`` as it stands."""
    out = np.empty((1, *clip_shape), dtype=np.float32)
    _render_clips([rng], [concept], concept_count, bias, out)
    return out[0]


def _render_clips(
    rngs: Iterable[Rng],
    concepts: Sequence[int],
    concept_count: int,
    bias: BiasProfile,
    out: np.ndarray,
) -> None:
    """Render clip ``j`` of ``out`` (N, T, H, W, C) from the ``j``-th rng and concept.

    Each clip draws its start ``x0``, ``y0`` and then its sensor noise from its
    own rng, taken from ``rngs`` in turn (the suite passes one generator,
    re-keyed per clip).  The frames are then computed for all clips at once in
    float64, with each clip's elementwise operations in the order a one-clip
    render takes them, so every clip has the same bits in any batch.
    """
    n, t_len, height, width, _ = out.shape
    x0 = np.empty(n)
    y0 = np.empty(n)
    vx = np.empty(n)
    vy = np.empty(n)
    spread = np.empty(n)  # 2 sigma^2
    noise = np.empty((n, t_len, height, width)) if bias.noise_std > 0 else None
    for j, (rng, concept) in enumerate(zip(rngs, concepts)):
        theta, speed, sigma = _concept_params(concept, concept_count)
        sigma *= bias.blob_scale
        vx[j] = speed * math.cos(theta)
        vy[j] = speed * math.sin(theta)
        spread[j] = 2.0 * sigma * sigma
        x0[j] = rng.uniform(low=0.0, high=width)
        y0[j] = rng.uniform(low=0.0, high=height)
        if noise is not None:
            noise[j] = rng.normal((t_len, height, width), std=bias.noise_std)

    steps = np.arange(t_len, dtype=np.float64) * bias.decimation
    px = (x0[:, None] + vx[:, None] * steps) % width  # (N, T)
    py = (y0[:, None] + vy[:, None] * steps) % height

    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    dy = np.abs(ys - py[:, :, None, None])  # (N, T, H, 1)
    np.minimum(dy, height - dy, out=dy)
    dx = np.abs(xs - px[:, :, None, None])  # (N, T, 1, W)
    np.minimum(dx, width - dx, out=dx)
    frames = dx * dx + dy * dy  # (N, T, H, W)
    np.negative(frames, out=frames)
    frames /= spread[:, None, None, None]
    np.exp(frames, out=frames)
    frames *= _BLOB_AMPLITUDE
    frames += bias.bg_offset
    if noise is not None:
        frames += noise
    np.clip(frames, 0.0, 1.0, out=frames)
    out[...] = frames[..., None]


def _build_alias_map(assignment: Sequence[Sequence[int]]) -> AliasMap:
    classes_of = []  # per dataset: concept -> its classes, in class order
    for row in assignment:
        by_concept: dict[int, list[int]] = {}
        for cls, concept in enumerate(row):
            by_concept.setdefault(concept, []).append(cls)
        classes_of.append(by_concept)
    entries = []
    for i, row_i in enumerate(assignment):
        for k, by_concept in enumerate(classes_of):
            if i == k:
                continue
            for a, ga in enumerate(row_i):
                for b in by_concept.get(ga, ()):
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


# Each ``mixing`` mode's dataset probabilities from the train-split sizes.
MIXING = {
    "proportional": lambda sizes: sizes / sizes.sum(),
    "uniform": lambda sizes: np.full(len(sizes), 1.0 / len(sizes)),
}


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
    if mixing not in MIXING:
        raise ConfigError(f"unknown mixing mode '{mixing}'")
    probs = MIXING[mixing](sizes)
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
