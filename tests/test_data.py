"""Synthetic suite tests: determinism, splits, aliases, bias rendering,
split rendering on the pool, and mixed-batch sampling statistics."""
import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from cotrain import data
from cotrain.backbone import BackboneConfig, StageConfig
from cotrain.data import (
    _BIAS_TEMPLATES,
    AliasEntry,
    BiasProfile,
    DatasetSpec,
    SyntheticSuite,
    _render_clip,
    generate_synthetic_suite,
    sample_mixed_batch,
)
from cotrain.errors import BatchSizeError, ConfigError
from cotrain.rng import Rng
from cotrain.trainer import TrainConfig, TrainState, evaluate


def small_suite(seed=5, **kwargs):
    defaults = dict(
        num_datasets=2,
        class_counts=[4, 4],
        train_sizes=[40, 40],
        test_sizes=[20, 20],
    )
    defaults.update(kwargs)
    return generate_synthetic_suite(seed, **defaults)


class TestSuiteConstruction:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_suite(class_counts=[4])
        with pytest.raises(ConfigError):
            small_suite(class_counts=[4, 1])
        with pytest.raises(ConfigError):
            small_suite(shared_classes=5)
        with pytest.raises(ConfigError):
            small_suite(class_counts=[4, 6], concept_count=5)
        with pytest.raises(ConfigError):
            generate_synthetic_suite(5, 0, [], [], [])

    def test_assignment_rows_have_distinct_concepts(self):
        suite = small_suite(class_counts=[4, 6], concept_count=8, shared_classes=3)
        for row in suite.assignment:
            assert len(set(row)) == len(row)

    def test_unique_classes_get_fresh_concepts(self):
        suite = small_suite(class_counts=[4, 5], concept_count=9, shared_classes=2)
        shared_pool = {0, 1}
        tail0 = set(suite.assignment[0][2:])
        tail1 = set(suite.assignment[1][2:])
        assert shared_pool.isdisjoint(tail0 | tail1)
        assert tail0.isdisjoint(tail1)

    def test_dataset_names_and_class_names(self):
        suite = small_suite()
        assert [s.name for s in suite.specs] == ["aster", "briar"]
        assert suite.specs[0].class_names[2] == "aster/02"


class TestDeterminism:
    def test_identical_suites_render_identical_clips(self):
        a = small_suite(seed=9)
        b = small_suite(seed=9)
        npt.assert_array_equal(a.clip(1, 17), b.clip(1, 17))

    def test_different_seed_changes_clips(self):
        a = small_suite(seed=9)
        b = small_suite(seed=10)
        assert not np.array_equal(a.clip(0, 3), b.clip(0, 3))

    def test_clip_independent_of_render_order(self):
        a = small_suite(seed=9)
        b = small_suite(seed=9)
        a.clip(0, 0)
        a.clip(0, 1)
        want = a.clip(0, 2)
        npt.assert_array_equal(b.clip(0, 2), want)

    def test_cache_returns_same_array(self):
        suite = small_suite()
        assert suite.clip(0, 0) is suite.clip(0, 0)

    @pytest.mark.parametrize("sample_id", [-1, 60, 1000])
    def test_id_outside_both_splits_is_refused(self, sample_id):
        suite = small_suite()
        with pytest.raises(ConfigError) as err:
            suite.clip(1, sample_id)
        message = str(err.value)
        assert "\n" not in message
        assert "'briar'" in message and f"sample id {sample_id}" in message and "0..59" in message
        assert not suite._cache


class TestSplits:
    def test_train_and_test_ids_are_disjoint(self):
        suite = small_suite()
        train = set(suite.train_ids(0).tolist())
        test = set(suite.test_ids(0).tolist())
        assert train.isdisjoint(test)
        assert len(train) == 40 and len(test) == 20

    def test_labels_cycle_through_classes(self):
        suite = small_suite()
        clips, labels = suite.split_arrays(0, "train")
        assert clips.shape == (40, 8, 16, 16, 1)
        npt.assert_array_equal(labels, np.arange(40) % 4)
        counts = np.bincount(labels, minlength=4)
        assert (counts == 10).all()

    def test_test_split_continues_id_space(self):
        suite = small_suite()
        _, labels = suite.split_arrays(1, "test")
        npt.assert_array_equal(labels, (np.arange(40, 60)) % 4)


class TestClipRendering:
    def test_range_dtype_and_shape(self):
        suite = small_suite()
        clip = suite.clip(0, 5)
        assert clip.shape == (8, 16, 16, 1)
        assert clip.dtype == np.float32
        assert clip.min() >= 0.0 and clip.max() <= 1.0

    def test_blob_actually_moves(self):
        clip = _render_clip(Rng(3, 0), 1, 4, BiasProfile(), (8, 16, 16, 1))
        assert np.abs(clip[0] - clip[4]).max() > 0.1

    def test_background_offset_lifts_empty_pixels(self):
        no_bias = _render_clip(Rng(3, 1), 0, 4, BiasProfile(), (8, 16, 16, 1))
        offset = _render_clip(Rng(3, 1), 0, 4, BiasProfile(bg_offset=0.05), (8, 16, 16, 1))
        assert no_bias.min() == pytest.approx(0.0, abs=1e-4)
        assert offset.min() == pytest.approx(0.05, abs=1e-3)

    def test_noise_perturbs_frames(self):
        clean = _render_clip(Rng(3, 2), 0, 4, BiasProfile(), (8, 16, 16, 1))
        noisy = _render_clip(Rng(3, 2), 0, 4, BiasProfile(noise_std=0.05), (8, 16, 16, 1))
        diff = noisy - clean
        assert 0.01 < diff.std() < 0.1

    def test_decimation_subsamples_the_same_trajectory(self):
        # Decimation d at frame t shows the blob where an undecimated clip
        # of the same draw shows it at frame d*t.
        fast = _render_clip(Rng(3, 3), 1, 4, BiasProfile(decimation=2), (8, 16, 16, 1))
        slow = _render_clip(Rng(3, 3), 1, 4, BiasProfile(), (16, 16, 16, 1))
        npt.assert_allclose(fast, slow[::2], atol=1e-7)

    def test_blob_scale_widens_the_blob(self):
        thin = _render_clip(Rng(3, 4), 0, 4, BiasProfile(), (8, 16, 16, 1))
        wide = _render_clip(Rng(3, 4), 0, 4, BiasProfile(blob_scale=1.5), (8, 16, 16, 1))
        assert wide.sum() > thin.sum() * 1.3

    def test_channels_are_replicated(self):
        clip = _render_clip(Rng(3, 5), 0, 4, BiasProfile(), (8, 16, 16, 3))
        npt.assert_array_equal(clip[..., 0], clip[..., 1])
        npt.assert_array_equal(clip[..., 0], clip[..., 2])

    def test_bias_validation(self):
        with pytest.raises(ConfigError):
            BiasProfile(decimation=0)
        with pytest.raises(ConfigError):
            BiasProfile(noise_std=-0.1)
        with pytest.raises(ConfigError):
            BiasProfile(blob_scale=0.0)


def _reference_render_clip(rng, concept, concept_count, bias, clip_shape):
    """The one-clip renderer as it was before splits rendered in batches, kept to pin the bits."""
    t_len, height, width, channels = clip_shape
    theta = 2.0 * math.pi * concept / concept_count
    speed = 1.25 + 0.5 * (concept % 2)
    sigma = 2.0 * bias.blob_scale
    vx = speed * math.cos(theta)
    vy = speed * math.sin(theta)

    x0 = float(rng.uniform(low=0.0, high=width))
    y0 = float(rng.uniform(low=0.0, high=height))
    steps = np.arange(t_len, dtype=np.float64) * bias.decimation
    px = (x0 + vx * steps) % width
    py = (y0 + vy * steps) % height

    ys = np.arange(height, dtype=np.float64)[None, :, None]
    xs = np.arange(width, dtype=np.float64)[None, None, :]
    dy = np.abs(ys - py[:, None, None])
    dy = np.minimum(dy, height - dy)
    dx = np.abs(xs - px[:, None, None])
    dx = np.minimum(dx, width - dx)
    frames = 1.0 * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))

    frames = frames + bias.bg_offset
    if bias.noise_std > 0:
        frames = frames + rng.normal((t_len, height, width), std=bias.noise_std)
    frames = np.clip(frames, 0.0, 1.0)
    return np.repeat(frames[..., None], channels, axis=-1).astype(np.float32)


def _reference_alias_entries(assignment):
    """The alias map's entries as the original loop over every class pair listed them."""
    entries = []
    for i, row_i in enumerate(assignment):
        for k, row_k in enumerate(assignment):
            if i == k:
                continue
            for a, ga in enumerate(row_i):
                for b, gb in enumerate(row_k):
                    if ga == gb:
                        entries.append(AliasEntry(i, a, k, b))
    return entries


# Every bias template, one without noise, and one more decimation and scale.
_RENDER_BIASES = [BiasProfile(*t) for t in _BIAS_TEMPLATES] + [
    BiasProfile(bg_offset=0.03, noise_std=0.0),
    BiasProfile(bg_offset=0.0, noise_std=0.03, decimation=2, blob_scale=1.3),
]


class TestSplitRendering:
    """A split renders in one batch across the pool, with the bits of a clip-by-clip loop."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("clip_shape", [(8, 16, 16, 1), (8, 32, 32, 3)])
    def test_every_clip_equals_the_one_clip_loop(self, clip_shape, workers, use_pool):
        use_pool(workers)
        n = len(_RENDER_BIASES)
        suite = generate_synthetic_suite(
            13,
            num_datasets=n,
            class_counts=[4, 5, 3, 4, 6, 4],
            train_sizes=[37] * n,  # several items a split, the last one short
            test_sizes=[19] * n,
            concept_count=12,
            shared_classes=3,
            biases=_RENDER_BIASES,
            clip_shape=clip_shape,
        )
        for spec in suite.specs:
            for split in ("train", "test"):
                for sid in suite.split_ids(spec.id, split).tolist():
                    concept = suite.assignment[spec.id][suite.label_of(spec.id, sid)]
                    rng = Rng(suite.seed, (spec.id << 40) ^ sid)
                    want = _reference_render_clip(rng, concept, suite.concept_count, spec.bias, clip_shape)
                    got = suite.clip(spec.id, sid)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (spec.id, sid)

    def test_one_clip_renderer_equals_the_original(self):
        for bias in _RENDER_BIASES:
            for shape in [(8, 16, 16, 1), (8, 32, 32, 3), (5, 7, 9, 2)]:
                got = _render_clip(Rng(3, 11), 5, 12, bias, shape)
                want = _reference_render_clip(Rng(3, 11), 5, 12, bias, shape)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_one_render_per_split_and_row_views(self, monkeypatch):
        suite = small_suite()
        renders = _count_renders(monkeypatch)
        first = suite.clip(1, 45)
        assert renders == [(1, "test")]
        assert first.base is not None and first.base.shape == (20, 8, 16, 16, 1)
        for sid in range(40, 60):
            assert suite.clip(1, sid).base is first.base
        assert renders == [(1, "test")]

    def test_cold_sampling_equals_warm(self):
        cold = small_suite(seed=17)
        warm = small_suite(seed=17)
        for spec in warm.specs:
            warm.split_arrays(spec.id, "train")
        for step in range(4):
            a = sample_mixed_batch(Rng(41, step), 16, cold)
            b = sample_mixed_batch(Rng(41, step), 16, warm)
            npt.assert_array_equal(a.dataset_ids, b.dataset_ids)
            npt.assert_array_equal(a.sample_ids, b.sample_ids)
            npt.assert_array_equal(a.labels, b.labels)
            assert a.clips.tobytes() == b.clips.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_evaluation_equals_warm_and_renders_each_split_once(self, workers, use_pool, monkeypatch):
        use_pool(workers)
        shape = (4, 8, 8, 1)

        def suite():
            return generate_synthetic_suite(
                23, 3, [4, 4, 4], [16, 16, 16], [40, 24, 33], clip_shape=shape
            )

        backbone = BackboneConfig(
            input_shape=shape, patch=(2, 4, 4), stages=(StageConfig(blocks=1, dim=8, heads=2),), mlp_ratio=2.0
        )
        warm = suite()
        state = TrainState.create(backbone, warm, TrainConfig(mode="full", steps=4, batch_size=4, warmup_steps=1))
        for spec in warm.specs:
            warm.split_arrays(spec.id, "test")
        want = evaluate(state.model, warm, batch_size=5)
        cold = suite()
        renders = _count_renders(monkeypatch)
        assert evaluate(state.model, cold, batch_size=5) == want
        assert sorted(renders) == [(0, "test"), (1, "test"), (2, "test")]

    def test_threads_missing_together_render_each_split_once(self, use_pool, monkeypatch):
        """Six threads on a 4-worker pool miss on a cold suite at once, under a 10 us switch interval."""
        use_pool(4)
        want = small_suite(seed=19)
        ids = [(k, sid) for k in range(2) for sid in range(60)]
        suite = small_suite(seed=19)
        renders = _count_renders(monkeypatch)
        seen = [None] * 6

        def work(t):
            order = ids[t * 17 :] + ids[: t * 17]
            seen[t] = {key: suite.clip(*key) for key in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(renders) == [(0, "test"), (0, "train"), (1, "test"), (1, "train")]
        for key in ids:
            assert all(clips[key] is seen[0][key] for clips in seen)
            assert seen[0][key].tobytes() == want.clip(*key).tobytes()


def _count_renders(monkeypatch) -> list:
    """Record ``(dataset id, split)`` for every split render from now on."""
    renders = []
    render = SyntheticSuite._render_split

    def counted(self, dataset_id, split):
        renders.append((dataset_id, split))
        render(self, dataset_id, split)

    monkeypatch.setattr(SyntheticSuite, "_render_split", counted)
    return renders


class TestAliasMap:
    def test_full_share_has_every_directed_pair(self):
        suite = small_suite()
        assert len(suite.alias_map) == 8  # 4 classes x 2 directions
        for a in range(4):
            b = suite.alias_map.lookup(0, a, 1)
            assert b is not None
            assert suite.assignment[0][a] == suite.assignment[1][b]

    def test_alias_map_is_consistent_both_ways(self):
        suite = small_suite(seed=11)
        for a in range(4):
            b = suite.alias_map.lookup(0, a, 1)
            assert suite.alias_map.lookup(1, b, 0) == a

    def test_partial_share_limits_entries(self):
        suite = small_suite(
            class_counts=[4, 3], concept_count=8, shared_classes=2
        )
        assert len(suite.alias_map.mapped_classes(0, 1)) == 2
        assert len(suite.alias_map.mapped_classes(1, 0)) == 2

    def test_zero_share_has_no_aliases(self):
        suite = small_suite(class_counts=[2, 2], concept_count=4, shared_classes=0)
        assert len(suite.alias_map) == 0

    @pytest.mark.parametrize(
        "num_datasets, class_counts, concepts, shared",
        [
            (4, [5, 5, 5, 5], None, None),  # full share
            (3, [4, 6, 5], 10, 3),  # partial share
            (3, [2, 3, 2], 7, 0),  # zero share
        ],
    )
    def test_entries_equal_the_pairwise_loop(self, num_datasets, class_counts, concepts, shared):
        suite = generate_synthetic_suite(
            29, num_datasets, class_counts, [8] * num_datasets, [4] * num_datasets,
            concept_count=concepts, shared_classes=shared,
        )
        assert list(suite.alias_map.entries) == _reference_alias_entries(suite.assignment)

    def test_repeated_concepts_keep_every_pair_in_order(self):
        # A suite built by hand may give two classes the same concept.
        suite = SyntheticSuite(1, small_suite().specs, 3, [[0, 1, 0, 2], [2, 0, 0, 1]])
        assert list(suite.alias_map.entries) == _reference_alias_entries(suite.assignment)

    def test_built_on_first_use(self, monkeypatch):
        builds = []
        build = data._build_alias_map

        def counted(assignment):
            builds.append(assignment)
            return build(assignment)

        monkeypatch.setattr(data, "_build_alias_map", counted)
        suite = small_suite()
        assert builds == []
        assert suite.alias_map is suite.alias_map
        assert builds == [suite.assignment]

    def test_permutations_make_nontrivial_maps(self):
        # Across a few seeds at least one alias map must differ from the
        # identity, otherwise the recovery benchmark would be vacuous.
        nontrivial = False
        for seed in range(6):
            suite = small_suite(seed=seed)
            mapping = suite.alias_map.mapped_classes(0, 1)
            if any(a != b for a, b in mapping.items()):
                nontrivial = True
        assert nontrivial


def velocity_map(clip):
    """Mean circular cross-correlation of consecutive frames.

    The map peaks at the per-step blob displacement, which depends on the
    motion concept but not on the random start position, so it is a
    phase-invariant signature of the underlying concept.
    """
    frames = clip[..., 0].astype(np.float64)
    frames = frames - frames.mean(axis=(1, 2), keepdims=True)
    acc = np.zeros(frames.shape[1:])
    for t in range(frames.shape[0] - 1):
        f0 = np.fft.fft2(frames[t])
        f1 = np.fft.fft2(frames[t + 1])
        acc += np.fft.ifft2(f1 * np.conj(f0)).real
    return acc / (frames.shape[0] - 1)


class TestConceptCorrelation:
    def test_aliased_classes_correlate_across_datasets(self):
        biases = [
            BiasProfile(bg_offset=0.0, noise_std=0.02),
            BiasProfile(bg_offset=0.05, noise_std=0.04, blob_scale=1.2),
        ]
        suite = small_suite(
            seed=21, train_sizes=[200, 200], test_sizes=[20, 20], biases=biases
        )

        def class_signature(k, label):
            ids = [label + 4 * j for j in range(50)]
            maps = [velocity_map(suite.clip(k, sid)) for sid in ids]
            sig = np.mean(maps, axis=0).ravel()
            sig = sig - sig.mean()
            return sig / np.linalg.norm(sig)

        sig0 = {a: class_signature(0, a) for a in range(4)}
        sig1 = {b: class_signature(1, b) for b in range(4)}
        matched, unmatched = [], []
        for a in range(4):
            b_true = suite.alias_map.lookup(0, a, 1)
            for b in range(4):
                corr = float(sig0[a] @ sig1[b])
                (matched if b == b_true else unmatched).append(corr)
        assert np.mean(matched) > np.mean(unmatched) + 0.1
        assert min(matched) > max(unmatched)


class TestMixedBatchSampling:
    def test_proportional_frequency(self):
        suite = small_suite(train_sizes=[100, 300], test_sizes=[20, 20])
        rng = Rng(31, 0)
        total = np.zeros(2)
        draws = 0
        for step in range(100):
            batch = sample_mixed_batch(Rng(31, step), 100, suite)
            total += np.bincount(batch.dataset_ids, minlength=2)
            draws += 100
        frac1 = total[1] / draws
        assert abs(frac1 - 0.75) < 0.02

    def test_uniform_frequency(self):
        suite = small_suite(train_sizes=[100, 300], test_sizes=[20, 20])
        total = np.zeros(2)
        for step in range(50):
            batch = sample_mixed_batch(Rng(33, step), 100, suite, mixing="uniform")
            total += np.bincount(batch.dataset_ids, minlength=2)
        assert abs(total[0] / 5000 - 0.5) < 0.03

    def test_batch_contents_are_consistent(self):
        suite = small_suite()
        batch = sample_mixed_batch(Rng(35, 0), 16, suite)
        assert batch.clips.shape == (16, 8, 16, 16, 1)
        for row in range(16):
            k = int(batch.dataset_ids[row])
            sid = int(batch.sample_ids[row])
            assert sid < suite.specs[k].train_size
            assert batch.labels[row] == suite.label_of(k, sid)
            npt.assert_array_equal(batch.clips[row], suite.clip(k, sid))

    def test_sampling_is_deterministic_in_the_key(self):
        suite = small_suite()
        a = sample_mixed_batch(Rng(37, 4), 8, suite)
        b = sample_mixed_batch(Rng(37, 4), 8, suite)
        npt.assert_array_equal(a.sample_ids, b.sample_ids)
        npt.assert_array_equal(a.dataset_ids, b.dataset_ids)

    def test_rejects_tiny_batch(self):
        with pytest.raises(BatchSizeError):
            sample_mixed_batch(Rng(39, 0), 1, small_suite())

    def test_rejects_unknown_mixing(self):
        with pytest.raises(ConfigError):
            sample_mixed_batch(Rng(39, 1), 4, small_suite(), mixing="weighted")
