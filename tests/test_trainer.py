"""Trainer tests on a deliberately tiny model: mode wiring, determinism,
checkpoint resume, and chance-level evaluation before training."""
import hashlib
import json
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from cotrain import trainer
from cotrain.backbone import BackboneConfig, StageConfig
from cotrain.config import RunConfig
from cotrain.data import generate_synthetic_suite
from cotrain.errors import ConfigError, FormatError, NumericError, ShapeError
from cotrain.nn import Module
from cotrain.optim import AdamW
from cotrain.rng import Rng
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
from cotrain.tensor_io import load_arrays, save_arrays

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
    return TrainConfig(mode=mode, **defaults)


class TestTrainConfig:
    def test_mode_roundtrip(self):
        for mode in MODES:
            assert TrainConfig(mode=mode).mode == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="bare")

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError):
            tiny_config(steps=5, warmup_steps=5)

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            tiny_config(batch_size=1)

    def test_unknown_mixing_rejected(self):
        """Refused when the config is built, not at the first batch it samples."""
        with pytest.raises(ConfigError, match="unknown mixing mode 'weighted'"):
            tiny_config(mixing="weighted")


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


# sha256 of (parameters, per-step loss totals) after three steps of each mode
# on a three-dataset suite with batches of four: the trained bits every mode
# must keep through any refactor of the mode table or the loss assembly.
MODE_DIGESTS = {
    "full": (
        "41231d8facd8d425d8a38b3d4b5cc376fa76330f156ad126e290550eac6b0473",
        "b7e0312744abaf2efa43fd26600d6962b725bcefd409cd1848edc65578ca8720",
    ),
    "vanilla": (
        "3b943a84b898d16c2d9079bc26284cd994d64eac3447775836cc6241fc39697d",
        "091b1b49429756c39973c12495f941ebfcb1422876394ea8c89e1a685fff96a6",
    ),
    "wo_informative": (
        "71b11482af8943d6f9898efb985d551984f3c1395d7188bf8be9399a062610ad",
        "d2bc5948a69b09cf37373abea336893973ba2f3e5040be40614ab023491bc23c",
    ),
    "wo_informative_wo_projadd": (
        "cbe4e61ebe1a76264aec79d24259b2875faa693e9cbdf9becf310a83d371ca40",
        "07ef23656c35e1620ec257a1172fabe90dba20e3e736ee4201b61aa0f8d50e4e",
    ),
    "wo_projection": (
        "9dfeecc95ecda0d404329f1167161d4eca1b6fb734f2d022076498882117424c",
        "e28b3309405e26a861d2f0e22aa071163bea30cd38564fe37b5b51ec7e22ae85",
    ),
}


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_keeps_its_trained_bits(mode):
    suite = generate_synthetic_suite(
        7,
        num_datasets=3,
        class_counts=[4, 4, 4],
        train_sizes=[24, 12, 18],
        test_sizes=[6, 6, 6],
        clip_shape=TINY_SHAPE,
    )
    cfg = RunConfig.load(None, ["train.steps=8", "train.batch_size=4", "train.warmup_steps=2"])
    state = TrainState.create(tiny_backbone(), suite, cfg.for_run(mode, 1).train_config())
    reports = train_steps(state, 3)
    assert any(0 in r.counts.values() for r in reports)  # some batch misses a dataset
    params = hashlib.sha256()
    for name, p in state.model.named_parameters():
        params.update(f"{name}:{p.data.dtype.str}:{p.data.shape};".encode())
        params.update(p.data.tobytes())
    totals = hashlib.sha256(np.array([r.total for r in reports], dtype=np.float64).tobytes())
    assert (params.hexdigest(), totals.hexdigest()) == MODE_DIGESTS[mode]


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
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config(), config_hash="0123456789abcdef")
        train_steps(state, 2)
        save_checkpoint(state, path)
        manifest = json.loads((tmp_path / "ckpt.mttn.json").read_text())
        assert manifest["step"] == 2
        assert manifest["config_hash"] == "0123456789abcdef"

    def test_a_state_built_without_a_config_hash_writes_an_empty_one(self, tmp_path):
        """Only RunConfig.hash() tags a checkpoint; the API derives no hash of its own."""
        path = tmp_path / "ckpt.mttn"
        save_checkpoint(TrainState.create(tiny_backbone(), tiny_suite(), tiny_config()), path)
        assert json.loads((tmp_path / "ckpt.mttn.json").read_text()) == {"step": 0, "config_hash": ""}


def _snapshot(state):
    return state.step, state.opt.t, state.model.state_arrays(), state.opt.state_arrays()


def _assert_unchanged(state, snapshot):
    step, t, params, moments = snapshot
    assert (state.step, state.opt.t) == (step, t)
    for now, before in ((state.model.state_arrays(), params), (state.opt.state_arrays(), moments)):
        assert list(now) == list(before)
        for name in before:
            assert now[name].tobytes() == before[name].tobytes(), name


class TestCheckpointRefusal:
    """A refused checkpoint leaves parameters, moments and the step as they were."""

    @pytest.fixture
    def saved(self, tmp_path):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(state, 2)
        path = tmp_path / "ckpt.mttn"
        save_checkpoint(state, path)
        target = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config(seed=5))
        train_steps(target, 3)
        return path, target

    def test_off_shape_moment(self, saved):
        path, target = saved
        arrays = load_arrays(path)
        # The last entry, so every parameter and the other moments check out first.
        key = next(k for k in reversed(arrays) if k.startswith("opt.m."))
        arrays[key] = arrays[key][None]
        save_arrays(path, arrays)
        before = _snapshot(target)
        with pytest.raises(ShapeError, match=f"optimizer entry '{key}'"):
            load_checkpoint(target, path)
        _assert_unchanged(target, before)

    @pytest.mark.parametrize("manifest", [{"config_hash": "x"}, {"step": -1}, {"step": "2"}, {"step": True}, [2]])
    def test_manifest_without_a_step(self, saved, manifest):
        path, target = saved
        (path.parent / "ckpt.mttn.json").write_text(json.dumps(manifest))
        before = _snapshot(target)
        with pytest.raises(ConfigError, match="manifest has no non-negative integer 'step'"):
            load_checkpoint(target, path)
        _assert_unchanged(target, before)


class TestCheckpointWrite:
    def test_save_and_load_call_the_array_io_once(self, tmp_path, monkeypatch):
        """The benchmark's tensor_io spans wrap these two names; each must run exactly once."""
        calls = []
        for name in ("save_arrays", "load_arrays"):
            real = getattr(trainer, name)
            monkeypatch.setattr(trainer, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        save_checkpoint(state, tmp_path / "ckpt.mttn")
        assert calls == ["save_arrays"]
        load_checkpoint(state, tmp_path / "ckpt.mttn")
        assert calls == ["save_arrays", "load_arrays"]

    def test_overwrite_replaces_both_files(self, tmp_path):
        path = tmp_path / "ckpt.mttn"
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(state, 1)
        save_checkpoint(state, path)
        train_steps(state, 2)
        save_checkpoint(state, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.mttn", "ckpt.mttn.json"]
        fresh = load_checkpoint(TrainState.create(tiny_backbone(), tiny_suite(), tiny_config()), path)
        _assert_unchanged(fresh, _snapshot(state))

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_manifest_rename_leaves_the_path_as_it_was(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "ckpt.mttn"
        manifest = tmp_path / "ckpt.mttn.json"
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        if existing:
            save_checkpoint(state, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        train_steps(state, 1)
        replace = os.replace
        failed = []

        def replace_failing_once_onto_the_manifest(src, dst):
            if os.fspath(dst) == os.fspath(manifest) and not failed:
                failed.append(src)
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_once_onto_the_manifest)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(state, path)
        assert failed
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_array_write_leaves_nothing(self, tmp_path, monkeypatch):
        def save_then_fail(path, arrays):
            save_arrays(path, arrays)
            raise OSError("no space left")

        monkeypatch.setattr(trainer, "save_arrays", save_then_fail)
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(state, tmp_path / "ckpt.mttn")
        assert list(tmp_path.iterdir()) == []


def _entry_bytes(blob: bytes) -> list[tuple[str, bytes]]:
    """Each entry of a well-formed checkpoint file: its name and its bytes, header included."""
    out, pos = [], 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        start = pos
        name_len = struct.unpack_from("<I", blob, pos)[0]
        name = blob[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        tag, rank = struct.unpack_from("<BI", blob, pos)
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 5)
        pos += 5 + 8 * rank + int(np.prod(dims)) * (4, 8)[tag]
        out.append((name, blob[start:pos]))
    return out


def _file(blob: bytes, entries: list[tuple[str, bytes]]) -> bytes:
    return blob[:8] + struct.pack("<I", len(entries)) + b"".join(raw for _, raw in entries)


def _edit(name: str, edit):
    """A tamper that rewrites the one entry called ``name`` with ``edit(raw entry bytes)``."""
    return lambda blob: _file(blob, [(n, edit(raw) if n == name else raw) for n, raw in _entry_bytes(blob)])


def _set_byte(at: int, value: int):
    return lambda raw: raw[:at] + bytes([value]) + raw[at + 1 :]


def _name_end(raw: bytes) -> int:
    return 4 + struct.unpack_from("<I", raw)[0]


def _flip_first_name_byte(raw: bytes) -> bytes:
    return _set_byte(4, raw[4] ^ 0x20)(raw)


def _dtype_tag(tag: int):
    return lambda raw: _set_byte(_name_end(raw), tag)(raw)


def _swap_two_dims(raw: bytes) -> bytes:
    dims = _name_end(raw) + 5
    return raw[:dims] + raw[dims + 8 : dims + 16] + raw[dims : dims + 8] + raw[dims + 16 :]


def _renamed(new: str):
    def rename(raw: bytes) -> bytes:
        encoded = new.encode("utf-8")
        return struct.pack("<I", len(encoded)) + encoded + raw[_name_end(raw) :]

    return rename


def _count(delta: int):
    return lambda blob: blob[:8] + struct.pack("<I", struct.unpack_from("<I", blob, 8)[0] + delta) + blob[12:]


def _dropped(name: str):
    return lambda blob: _file(blob, [(n, raw) for n, raw in _entry_bytes(blob) if n != name])


def _swapped(blob: bytes) -> bytes:
    entries = _entry_bytes(blob)
    return _file(blob, [entries[1], entries[0], *entries[2:]])


def _appended(blob: bytes) -> bytes:
    extra = b"".join([struct.pack("<I", 5), b"extra", struct.pack("<BIQ", 0, 1, 2), np.ones(2, np.float32).tobytes()])
    return _file(blob, [*_entry_bytes(blob), ("extra", extra)])


_FC1 = "backbone.stage0.block0.mlp.fc1.weight"  # (8, 16)
_LOADS = "loads"
# Each tamper and what it gives, recorded by running this test at the
# commit before checkpoint layouts: the exception's type and message, or a
# load that restores the saved parameters, moments and step.
_TAMPERS = {
    "untouched": (lambda blob: blob, _LOADS),
    "name_byte_flipped": (
        _edit("heads.0.weight", _flip_first_name_byte),
        (ShapeError, "state is missing parameters: ['heads.0.weight']"),
    ),
    "dtype_tag_float64_on_the_last_entry": (
        _edit("opt.v.sigma.log_sigma", _dtype_tag(1)),
        (FormatError, "truncated while reading data for 'opt.v.sigma.log_sigma' (byte offset 22378)"),
    ),
    "dtype_tag_unknown": (
        _edit("backbone.patch_kernel", _dtype_tag(7)),
        (FormatError, "unknown dtype tag 7 (byte offset 37)"),
    ),
    "parameter_dims_swapped": (
        _edit(_FC1, _swap_two_dims),
        (ShapeError, f"parameter '{_FC1}' has shape (8, 16), state has (16, 8)"),
    ),
    "moment_dims_swapped": (
        _edit("opt.v." + _FC1, _swap_two_dims),
        (ShapeError, f"optimizer entry 'opt.v.{_FC1}' has shape (8, 16), state has (16, 8)"),
    ),
    "entry_count_plus_one": (
        _count(1),
        (FormatError, "truncated while reading name length (byte offset 22386)"),
    ),
    "entry_count_minus_one": (
        _count(-1),
        (FormatError, "trailing bytes after final entry (byte offset 22340)"),
    ),
    "one_byte_cut": (
        lambda blob: blob[:-1],
        (FormatError, "truncated while reading data for 'opt.v.sigma.log_sigma' (byte offset 22378)"),
    ),
    "one_byte_appended": (
        lambda blob: blob + b"\0",
        (FormatError, "trailing bytes after final entry (byte offset 22386)"),
    ),
    "two_entries_swapped": (_swapped, _LOADS),
    "parameter_renamed": (
        _edit("projections.0to1", _renamed("projections.0to1x")),
        (ShapeError, "state is missing parameters: ['projections.0to1']"),
    ),
    "moment_renamed": (
        _edit("opt.m.sigma.log_sigma", _renamed("opt.m.sigma.log_sigmb")),
        (ShapeError, "state is missing 1 optimizer moment arrays, first 'opt.m.sigma.log_sigma'"),
    ),
    "parameter_dropped": (
        _dropped("sigma.log_sigma"),
        (ShapeError, "state is missing parameters: ['sigma.log_sigma']"),
    ),
    "moment_dropped": (
        _dropped("opt.v.heads.1.bias"),
        (ShapeError, "state is missing 1 optimizer moment arrays, first 'opt.v.heads.1.bias'"),
    ),
    "entry_appended": (_appended, _LOADS),
}


class TestCheckpointLayout:
    """Saves and loads through a state's built checkpoint layout give what the parser gives."""

    @pytest.mark.parametrize("built", [True, False], ids=["layout_built", "first_load"])
    @pytest.mark.parametrize("case", list(_TAMPERS))
    def test_tampered_file_gives_the_parsers_outcome(self, tmp_path, case, built):
        tamper, want = _TAMPERS[case]
        source = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(source, 2)
        path = tmp_path / "ckpt.mttn"
        save_checkpoint(source, path)
        target = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config(seed=5))
        train_steps(target, 3)
        if built:
            save_checkpoint(target, tmp_path / "own.mttn")  # builds the target's layout
        path.write_bytes(tamper(path.read_bytes()))
        before = _snapshot(target)
        try:
            load_checkpoint(target, path)
        except Exception as err:
            got = (type(err), str(err))
            _assert_unchanged(target, before)
        else:
            got = _LOADS
            _assert_unchanged(target, _snapshot(source))
        assert got == want

    def test_saves_and_loads_do_not_walk_the_module_tree(self, tmp_path, monkeypatch):
        walks = []
        walk = Module.named_parameters

        def counted(self, prefix=""):
            walks.append(prefix)
            return walk(self, prefix)

        monkeypatch.setattr(Module, "named_parameters", counted)
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        fresh = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config(seed=5))
        walks.clear()
        save_checkpoint(state, tmp_path / "a.mttn")
        load_checkpoint(fresh, tmp_path / "a.mttn")  # the first load into a fresh state
        train_steps(state, 1)
        save_checkpoint(state, tmp_path / "b.mttn")
        load_checkpoint(fresh, tmp_path / "b.mttn")
        assert walks == []
        _assert_unchanged(fresh, _snapshot(state))
        train_steps(state, 1)
        path = tmp_path / "c.mttn"
        save_checkpoint(state, path)
        path.write_bytes(_appended(path.read_bytes()))
        walks.clear()
        load_checkpoint(fresh, path)  # through the parser
        assert walks == []
        _assert_unchanged(fresh, _snapshot(state))

    def test_a_rebound_parameter_is_saved_and_loaded_with_its_new_values(self, tmp_path):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(state, 1)
        save_checkpoint(state, tmp_path / "before.mttn")
        rng = Rng(3, 0)
        for name, p in state.model.named_parameters():  # as verify._widen rebinds them
            if p.data.ndim >= 2:
                p.data = rng.normal(p.shape, std=0.5).astype(p.data.dtype)
        path = tmp_path / "after.mttn"
        save_checkpoint(state, path)
        want = {**{n: p.data for n, p in state.model.named_parameters()}, **dict(state.opt.named_moments())}
        assert path.read_bytes() == _arrays_file(tmp_path / "want.mttn", want)
        target = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config(seed=5))
        save_checkpoint(target, tmp_path / "own.mttn")
        load_checkpoint(target, path)
        _assert_unchanged(target, _snapshot(state))

    def test_a_state_converted_to_float64_is_saved_and_loaded_in_float64(self, tmp_path):
        state = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config())
        train_steps(state, 1)
        save_checkpoint(state, tmp_path / "before.mttn")
        state.model.to_dtype(np.float64)
        for _, p in state.model.named_parameters():
            p.data += 1e-12  # bits that a float32 copy would lose
        path = tmp_path / "wide.mttn"
        save_checkpoint(state, path)
        want = {**{n: p.data for n, p in state.model.named_parameters()}, **dict(state.opt.named_moments())}
        assert path.read_bytes() == _arrays_file(tmp_path / "want.mttn", want)
        target = TrainState.create(tiny_backbone(), tiny_suite(), tiny_config(seed=5))
        save_checkpoint(target, tmp_path / "own.mttn")
        target.model.to_dtype(np.float64)
        load_checkpoint(target, path)
        _assert_unchanged(target, _snapshot(state))
        assert all(p.data.dtype == np.float64 for _, p in target.model.named_parameters())


def _arrays_file(path, arrays) -> bytes:
    """The bytes ``save_arrays`` writes for ``arrays`` through the general writer."""
    save_arrays(path, arrays)
    return path.read_bytes()
