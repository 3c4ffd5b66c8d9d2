"""Trainer tests on a deliberately tiny model: mode wiring, determinism,
checkpoint resume, and chance-level evaluation before training."""
import numpy as np
import numpy.testing as npt
import pytest

from cotrain.backbone import BackboneConfig, StageConfig
from cotrain.data import generate_synthetic_suite
from cotrain.errors import ConfigError, NumericError
from cotrain.optim import AdamW
from cotrain.tensor import Tensor, no_grad
from cotrain.trainer import (
    MODES,
    EvalResult,
    TrainConfig,
    TrainState,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train_steps,
)

TINY_SHAPE = (4, 8, 8, 1)


def tiny_backbone():
    return BackboneConfig(
        input_shape=TINY_SHAPE,
        patch=(2, 4, 4),
        stages=(StageConfig(blocks=1, dim=8, heads=2),),
        mlp_ratio=2.0,
    )


def tiny_suite(seed=7, train=24, test=12):
    return generate_synthetic_suite(
        seed,
        num_datasets=2,
        class_counts=[4, 4],
        train_sizes=[train, train],
        test_sizes=[test, test],
        clip_shape=TINY_SHAPE,
    )


def tiny_config(mode="full", **overrides):
    defaults = dict(steps=8, batch_size=4, warmup_steps=2, base_lr=1e-3)
    defaults.update(overrides)
    return TrainConfig.for_mode(mode, **defaults)


class TestTrainConfig:
    def test_mode_roundtrip(self):
        for mode in MODES:
            assert TrainConfig.for_mode(mode).mode == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.for_mode("bare")

    def test_vanilla_excludes_other_components(self):
        with pytest.raises(ConfigError):
            TrainConfig(vanilla=True, use_informative=True)

    def test_projection_add_needs_projection_loss(self):
        with pytest.raises(ConfigError):
            TrainConfig(
                vanilla=False,
                use_informative=True,
                use_projection_loss=False,
                projection_add=True,
            )

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError):
            tiny_config(steps=5, warmup_steps=5)

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            tiny_config(batch_size=1)


class TestBuildModel:
    def test_full_has_every_component(self):
        model = build_model(tiny_backbone(), [4, 4], tiny_config("full"))
        assert model.expander is not None
        assert model.projections is not None
        assert model.sigma is not None

    def test_vanilla_is_bare(self):
        model = build_model(tiny_backbone(), [4, 4], tiny_config("vanilla"))
        assert model.expander is None
        assert model.projections is None
        assert model.sigma is None

    def test_wo_informative_drops_expander_only(self):
        model = build_model(tiny_backbone(), [4, 4], tiny_config("wo_informative"))
        assert model.expander is None
        assert model.projections is not None
        assert model.sigma is not None

    def test_wo_projection_drops_bank_only(self):
        model = build_model(tiny_backbone(), [4, 4], tiny_config("wo_projection"))
        assert model.expander is not None
        assert model.projections is None
        assert model.sigma is not None

    def test_same_seed_same_init(self):
        a = build_model(tiny_backbone(), [4, 4], tiny_config())
        b = build_model(tiny_backbone(), [4, 4], tiny_config())
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            npt.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestGradientClipping:
    def test_large_gradient_rescaled_to_max_norm(self):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.full(4, 3.0, dtype=np.float32)
        AdamW({"p": p}).clip_grad_norm(max_norm=1.0)
        npt.assert_allclose(np.linalg.norm(p.grad), 1.0, rtol=1e-6)

    def test_small_gradient_untouched(self):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.full(4, 0.01, dtype=np.float32)
        AdamW({"p": p}).clip_grad_norm(max_norm=1.0)
        npt.assert_array_equal(p.grad, np.full(4, 0.01, dtype=np.float32))

    def test_norm_is_global_across_params(self):
        a = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        AdamW({"a": a, "b": b}).clip_grad_norm(max_norm=1.0)
        npt.assert_allclose(a.grad, [0.6], rtol=1e-6)
        npt.assert_allclose(b.grad, [0.8], rtol=1e-6)

    def test_infinite_gradient_stops_training_at_its_step(self, monkeypatch):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(state, 2)
        before = state.model.state_arrays()
        backward = Tensor.backward

        def poisoned_backward(self):
            backward(self)
            next(iter(state.opt.params.values())).grad[...] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        with pytest.raises(NumericError, match="non-finite gradient norm at step 2"):
            train_steps(state, 1)
        # Nothing was written: the step stopped before the update.
        assert state.step == 2
        for name, arr in state.model.state_arrays().items():
            npt.assert_array_equal(arr, before[name], err_msg=name)


class TestTrainingLoop:
    def test_reports_and_step_counter(self):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        seen = []
        reports = train_steps(state, 3, on_report=lambda s, lr, r: seen.append((s, lr)))
        assert state.step == 3
        assert len(reports) == 3
        assert [s for s, _ in seen] == [0, 1, 2]
        assert seen[0][1] < seen[2][1]  # warmup ramps the rate

    def test_full_report_carries_sigmas_and_regularizers(self):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config("full"))
        report = train_steps(state, 1)[0]
        assert report.sigmas is not None
        assert report.variance > 0.0
        assert sum(report.counts.values()) == 4

    def test_vanilla_report_has_no_sigmas(self):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config("vanilla"))
        report = train_steps(state, 1)[0]
        assert report.sigmas is None
        assert report.variance == 0.0
        assert report.covariance == 0.0

    def test_chunked_training_matches_single_call(self):
        whole = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(whole, 6)
        parts = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(parts, 2)
        train_steps(parts, 4)
        for (name, pw), (_, pp) in zip(
            whole.model.named_parameters(), parts.model.named_parameters()
        ):
            npt.assert_array_equal(pw.data, pp.data, err_msg=name)

    def test_loss_decreases_over_training(self):
        state = TrainState.create(
            tiny_backbone(), tiny_suite(), tiny_config(steps=300, warmup_steps=20)
        )
        reports = train_steps(state, 300)
        start = np.mean([r.total for r in reports[:10]])
        end = np.mean([r.total for r in reports[-10:]])
        assert end < start


class TestEvaluate:
    def test_untrained_model_is_at_chance(self):
        suite = tiny_suite(seed=3, train=8, test=200)
        state = TrainState.create(tiny_backbone(), suite, tiny_config())
        results = evaluate(state.model, suite)
        hits = sum(r.top1 * r.count for r in results.values())
        total = sum(r.count for r in results.values())
        assert total == 400
        assert abs(hits / total - 0.25) < 0.05

    def test_top5_with_four_classes_is_total(self):
        suite = tiny_suite(test=10)
        state = TrainState.create(tiny_backbone(), suite, tiny_config())
        results = evaluate(state.model, suite)
        assert all(r.top5 == 1.0 for r in results.values())

    def test_train_split_evaluation(self):
        suite = tiny_suite(train=12, test=6)
        state = TrainState.create(tiny_backbone(), suite, tiny_config())
        results = evaluate(state.model, suite, split="train")
        assert all(r.count == 12 for r in results.values())


class _Recording:
    """Calls ``module`` and keeps each call's arguments and output."""

    def __init__(self, module):
        self.module = module
        self.calls = []

    def __call__(self, *args):
        out = self.module(*args)
        self.calls.append((args, out))
        return out


def _serial_eval(model, suite, batch_size):
    """Own-head logits per ``(dataset id, batch clips)`` and the accuracies, batch after batch in one loop."""
    logits, results = {}, {}
    with no_grad():
        for spec in suite.specs:
            clips, labels = suite.split_arrays(spec.id, "test")
            hits1 = hits5 = 0
            for start in range(0, len(labels), batch_size):
                chunk, truth = clips[start : start + batch_size], labels[start : start + batch_size]
                out = model.heads(spec.id, model.backbone(Tensor(chunk))).data
                logits[spec.id, chunk.tobytes()] = out
                order = np.argsort(-out, axis=1)
                hits1 += int((order[:, 0] == truth).sum())
                hits5 += int((order[:, :5] == truth[:, None]).any(axis=1).sum())
            results[spec.id] = EvalResult(hits1 / len(labels), hits5 / len(labels), len(labels))
    return logits, results


class TestEvaluateOnThePool:
    """``evaluate`` spreads its batches across the tensor pool; logits and results match a serial loop."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "datasets, batch_size",
        [
            (2, 5),  # 5, 5, 2 clips per dataset: an uneven last batch
            (2, 1),
            (2, 12),  # one whole batch per dataset
            (1, 64),  # one batch in all: it runs in the caller
        ],
    )
    def test_logits_and_results_match_a_serial_loop(self, datasets, batch_size, workers, use_pool):
        use_pool(workers)
        suite = generate_synthetic_suite(
            5,
            num_datasets=datasets,
            class_counts=[6] * datasets,
            train_sizes=[12] * datasets,
            test_sizes=[12] * datasets,
            clip_shape=TINY_SHAPE,
        )
        state = TrainState.create(tiny_backbone(), suite, tiny_config("vanilla"))
        train_steps(state, 2)
        model = state.model
        expected_logits, expected = _serial_eval(model, suite, batch_size)
        model.backbone, model.heads = backbone, heads = _Recording(model.backbone), _Recording(model.heads)
        assert evaluate(model, suite, batch_size=batch_size) == expected
        clips = {id(z): x.data.tobytes() for (x,), z in backbone.calls}
        logits = {(k, clips[id(z)]): out.data for (k, z), out in heads.calls}
        assert len(heads.calls) == len(expected_logits) == len(logits)
        for key, want in expected_logits.items():
            assert logits[key].dtype == want.dtype and np.array_equal(logits[key], want)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_is_refused(self, batch_size):
        suite = tiny_suite()
        state = TrainState.create(tiny_backbone(), suite, tiny_config())
        with pytest.raises(ConfigError, match="batch size"):
            evaluate(state.model, suite, batch_size=batch_size)

    def test_unknown_split_is_refused(self):
        suite = tiny_suite()
        state = TrainState.create(tiny_backbone(), suite, tiny_config())
        with pytest.raises(ConfigError, match="split must be 'train' or 'test', got 'val'"):
            evaluate(state.model, suite, split="val")


class TestCheckpointing:
    def test_resume_is_bitwise(self, tmp_path):
        path = tmp_path / "ckpt.mttn"
        full_run = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(full_run, 3)
        save_checkpoint(full_run, path)
        train_steps(full_run, 3)

        resumed = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        load_checkpoint(resumed, path)
        assert resumed.step == 3
        train_steps(resumed, 3)

        for (name, pa), (_, pb) in zip(
            full_run.model.named_parameters(), resumed.model.named_parameters()
        ):
            npt.assert_array_equal(pa.data, pb.data, err_msg=name)
        for name in full_run.opt.m:
            npt.assert_array_equal(full_run.opt.m[name], resumed.opt.m[name])
            npt.assert_array_equal(full_run.opt.v[name], resumed.opt.v[name])

    def test_manifest_records_step_and_hash(self, tmp_path):
        path = tmp_path / "ckpt.mttn"
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(state, 2)
        save_checkpoint(state, path)
        import json

        manifest = json.loads((tmp_path / "ckpt.mttn.json").read_text())
        assert manifest["step"] == 2
        assert manifest["config_hash"] == state.config_hash
        assert manifest["rng_state"]["next_step"] == 2
