"""Config schema and CLI behavior tests, kept fast with a tiny model."""
import hashlib
import json
import multiprocessing

import numpy as np
import pytest

from cotrain import cli
from cotrain import libc as libc_module
from cotrain import tensor, trainer
from cotrain.backbone import BackboneConfig
from cotrain.cli import main
from cotrain.config import _PARSERS, SCHEMA, RunConfig, write_resolved
from cotrain.data import generate_synthetic_suite
from cotrain.errors import ConfigError
from cotrain.tensor_io import load_arrays, save_arrays

TINY_INI = """\
[backbone]
input_t = 4
input_h = 8
input_w = 8
patch_t = 2
patch_h = 4
patch_w = 4
stage_blocks = 1
stage_dims = 8
stage_heads = 2
stage_q_strides = 1
stage_kv_strides = 1
mlp_ratio = 2.0

[datasets]
count = 2
classes = 4
train_size = 16
test_size = 8

[train]
steps = 6
warmup_steps = 2
batch_size = 4
"""

ONE_DATASET_BRANCH_ERROR = (
    "error: mode wo_informative_wo_projadd trains a separate projection branch, "
    "which needs at least 2 datasets, got 1"
)


# sha256 of what ``train`` (checkpoints every 2 steps, evals every 3) and
# ``ablate --seeds 1`` write on TINY_INI, recorded at commit 0608056.  The
# manifests and resolved_config.cfg hold the config hash and are checked by
# their keys instead.
TRAIN_DIGESTS = {
    "checkpoint_2.mttn": "97e8562bb21fb6626a4d95783545e6f94c47acab24f3e4e62056b3ee4e2a1c32",
    "checkpoint_4.mttn": "51d8519879ab7b4422af40e8fcb33214e0b15b0cf76a3038c91fad5823914716",
    "checkpoint_6.mttn": "ba79013d04b108f162de93feb68e495a5b7d0d98592bffcc615e992b1b3208db",
    "metrics.ndjson": "b5f4ecdbe8b071c27a325930b99fd5cc0709f46bdcda949f4cafe7ad8ce987cc",
    "report.csv": "f35d09548e3601575554ea9ff20b2ecddad6134a15194cbc359193c335008f03",
}
ABLATE_DIGESTS = {
    "ablate.csv": "6b0b7ac438d5323206d8525e0cc395393c27760765645892a0580442d23a1698",
    "full_seed1/checkpoint_6.mttn": "ba79013d04b108f162de93feb68e495a5b7d0d98592bffcc615e992b1b3208db",
    "full_seed1/metrics.ndjson": "c944c744116ea05968bb1bfc3f57de716276b2491c40434396285f4f9feb8c48",
    "full_seed1/report.csv": "f35d09548e3601575554ea9ff20b2ecddad6134a15194cbc359193c335008f03",
    "vanilla_seed1/checkpoint_6.mttn": "c71ea5ac4eb635083f01a44b92b1df8161298a8e96125beb24e72fbb1681b375",
    "vanilla_seed1/metrics.ndjson": "2761b84c35051c9211fe31009b26fb8350a010809042c9097f0b5201087110a8",
    "vanilla_seed1/report.csv": "fb9d54c5c214e23711870740fcd10f08108363dc6d3be76e92f82ae648661403",
    "wo_informative_seed1/checkpoint_6.mttn": "332fa98704802b0c7d87ff05798fb5fba4dca38aeb573b0178d92d3ee7864ed6",
    "wo_informative_seed1/metrics.ndjson": "0a7fd46185c13d95eab4d25dc77f35e1ed92d7f15c67f63529384b72f1fcafc2",
    "wo_informative_seed1/report.csv": "2fdd012a1f32cacd8bb5f33e6ec03416adccd1adf255a1697b37e3ddd0937ec9",
    "wo_informative_wo_projadd_seed1/checkpoint_6.mttn": "383b7e24201de24a647b632292b361d26e15eb654424194a95da788ac6358190",
    "wo_informative_wo_projadd_seed1/metrics.ndjson": "9d711514c94d436f6ef563bb543e67e2fe738fa08bce1aed28f7e19435061745",
    "wo_informative_wo_projadd_seed1/report.csv": "6860febe8f68c9817ca4347afc103fa2f817cd21ad115027e88f0a1c12e7f309",
    "wo_projection_seed1/checkpoint_6.mttn": "0c0385cea47ec63131ff13240a98db85860fc643bb6158b4af51467058f56847",
    "wo_projection_seed1/metrics.ndjson": "cd1163d291243561c2c9aaf2a6584362eaaa7a69e6a4a0d79d962203728c6b85",
    "wo_projection_seed1/report.csv": "41614c62cacca3bd85a051c4cdd85d52a39a8e31971c53719a24ea29ba32a882",
}

# A command and a setting it refuses, with the one line it prints.  Each had
# exited 1 only after making its --out directory and writing
# resolved_config.cfg there, so the corrected command was then refused as
# "not empty"; the ablation had also made an empty full_seed1/.
REFUSED_SETTINGS = {
    "train-steps": (["train", "--set", "train.steps=2"], "warmup_steps must lie in [0, steps), got 2 of 2"),
    "train-mode": (
        ["train", "--set", "train.mode=bogus"],
        f"train.mode must be one of {tuple(trainer.MODES)}, got 'bogus'",
    ),
    "train-eval-batch": (["train", "--set", "report.eval_batch=0"], "report.eval_batch must be >= 1, got 0"),
    "train-stage-dims": (
        ["train", "--set", "backbone.stage_dims=8,16"],
        "backbone stage lists must have equal lengths",
    ),
    "train-kv-stride": (
        ["train", "--set", "backbone.stage_kv_strides=3"],
        "stage 0: key/value stride (3, 3, 3) does not divide token grid (2, 2, 2)",
    ),
    "train-first-stage-q-stride": (
        ["train", "--set", "backbone.stage_q_strides=2"],
        "stage 0: query stride must be (1, 1, 1), got (2, 2, 2); the first stage runs on the patch grid",
    ),
    "train-mixing": (["train", "--set", "datasets.mixing=bogus"], "unknown mixing mode 'bogus'"),
    "train-branch-mode": (
        ["train", "--set", "datasets.count=1", "--set", "train.mode=wo_informative_wo_projadd"],
        ONE_DATASET_BRANCH_ERROR.removeprefix("error: "),
    ),
    "ablate-eval-batch": (
        ["ablate", "--seeds", "1", "--set", "report.eval_batch=0"],
        "report.eval_batch must be >= 1, got 0",
    ),
    "ablate-steps": (["ablate", "--seeds", "1", "--set", "train.steps=2"], "warmup_steps must lie in [0, steps), got 2 of 2"),
    "ablate-repeated-seed": (["ablate", "--seeds", "1,1"], "--seeds names seed 1 more than once"),
    "train-beta1": (["train", "--set", "train.beta1=-0.1"], "train.beta1 must lie in [0, 1), got -0.1"),
    "train-beta2": (["train", "--set", "train.beta2=1.0"], "train.beta2 must lie in [0, 1), got 1.0"),
    "train-grad-clip": (
        ["train", "--set", "train.grad_clip=-1"],
        "train.grad_clip must be >= 0 (0 turns clipping off), got -1.0",
    ),
    "ablate-beta2": (["ablate", "--seeds", "1", "--set", "train.beta2=1.5"], "train.beta2 must lie in [0, 1), got 1.5"),
    "dump-classes": (
        ["dump-dataset", "--set", "datasets.classes=4,4,4"],
        "datasets.classes needs 1 or 2 comma-separated values, got 3",
    ),
}


@pytest.fixture()
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_INI)
    return str(path)


class TestRunConfig:
    def test_defaults_cover_schema(self):
        cfg = RunConfig.defaults()
        for section, keys in SCHEMA.items():
            for key in keys:
                assert cfg.get(section, key) == SCHEMA[section][key][1]

    def test_defaults_are_what_the_gate_trains(self):
        """The schema reads its backbone, loss and train defaults from the dataclasses.

        The gate trains the default config, so its suite is pinned here: 3
        datasets of 4 classes, 200 train and 100 test clips each.
        """
        cfg = RunConfig.defaults()
        assert cfg.backbone_config() == BackboneConfig()
        assert cfg.train_config() == trainer.TrainConfig()
        assert cfg.loss_config() == trainer.LossConfig()
        suite, gate = cfg.suite(), generate_synthetic_suite(7, 3, [4] * 3, [200] * 3, [100] * 3)
        assert suite.specs == gate.specs
        assert suite.assignment == gate.assignment

    def test_render_and_hash_are_the_recorded_bytes(self, tiny_ini):
        """sha256 of ``render()``, recorded at commit bb56e53, and the hash it gives.

        A reordered, renamed or re-rendered key changes them, and with them
        every run's resolved_config.cfg and checkpoint manifests.
        """
        recorded = [
            (RunConfig.defaults(), "5d75d8e26eae705ea40f4e016ba16b8e3de972b38da1ac350481aea729054ec8"),
            (RunConfig.load(tiny_ini), "676b0e92931a6abb877f3d78e465f6ee435aed2e3928e8775db7d2ff1315fb9b"),
        ]
        for cfg, digest in recorded:
            assert hashlib.sha256(cfg.render().encode()).hexdigest() == digest
            assert cfg.hash() == digest[:16]

    def test_every_schema_type_has_a_parser(self):
        assert {kind for keys in SCHEMA.values() for kind, _ in keys.values()} <= set(_PARSERS)

    def test_file_then_override_precedence(self, tiny_ini):
        cfg = RunConfig.load(tiny_ini, ["train.steps=9"])
        assert cfg.get("train", "steps") == 9
        assert cfg.get("train", "warmup_steps") == 2

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[training]\nsteps = 5\n")
        with pytest.raises(ConfigError, match="training"):
            RunConfig.load(str(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="train.step"):
            RunConfig.load(None, ["train.step=5"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="train.steps"):
            RunConfig.load(None, ["train.steps=soon"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            RunConfig.load(None, ["train.steps"])
        with pytest.raises(ConfigError, match="section.key"):
            RunConfig.load(None, ["steps=5"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.load("no_such_file.cfg")

    def test_render_roundtrips_through_file(self, tmp_path):
        cfg = RunConfig.load(None, ["train.base_lr=0.001", "datasets.classes=4,5,6"])
        path = tmp_path / "echo.cfg"
        path.write_text(cfg.render())
        again = RunConfig.load(str(path))
        assert again.values == cfg.values
        assert again.hash() == cfg.hash()

    def test_hash_tracks_values(self):
        base = RunConfig.load(None)
        changed = RunConfig.load(None, ["train.seed=2"])
        assert base.hash() != changed.hash()
        assert base.hash() == RunConfig.load(None).hash()

    def test_backbone_materialization(self, tiny_ini):
        bb = RunConfig.load(tiny_ini).backbone_config()
        assert bb.input_shape == (4, 8, 8, 1)
        assert len(bb.stages) == 1
        assert bb.stages[0].dim == 8

    def test_stage_list_broadcast(self):
        cfg = RunConfig.load(
            None, ["backbone.stage_blocks=1,1", "backbone.stage_dims=8,16",
                   "backbone.stage_heads=2", ]
        )
        with pytest.raises(ConfigError, match="equal lengths"):
            cfg.backbone_config()

    def test_dataset_broadcast_mismatch(self):
        cfg = RunConfig.load(None, ["datasets.classes=4,5"])
        with pytest.raises(ConfigError, match="datasets.classes"):
            cfg.suite()

    def test_suite_follows_backbone_clip_shape(self, tiny_ini):
        suite = RunConfig.load(tiny_ini).suite()
        assert suite.clip_shape == (4, 8, 8, 1)
        assert len(suite.specs) == 2

    def test_train_config_mode_wiring(self, tiny_ini):
        cfg = RunConfig.load(tiny_ini)
        assert cfg.for_run("vanilla", 1).train_config().mode == "vanilla"
        assert cfg.train_config().mode == "full"
        with pytest.raises(ConfigError, match="train.mode"):
            cfg.for_run("bare", 1).train_config()

    def test_write_resolved(self, tmp_path):
        cfg = RunConfig.load(None)
        path = write_resolved(cfg, tmp_path)
        assert path.name == "resolved_config.cfg"
        assert RunConfig.load(str(path)).hash() == cfg.hash()


class TestCliUsage:
    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--steps", "5"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["eval", "--checkpoint", "c.mttn", "--out", "OUT"], "--out OUT"),
            (["eval", "--checkpoint", "c.mttn", "--seed", "3"], "--seed 3"),
            (["inspect-projections", "--checkpoint", "c.mttn", "--force", "--out", "OUT"], "--force --out OUT"),
            (["ablate", "--seeds", "1", "--seed", "3", "--out", "OUT"], "--seed 3"),
            (["dump-dataset", "--seed", "3", "--out", "OUT"], "--seed 3"),
        ],
        ids=["eval-out", "eval-seed", "inspect-force", "ablate-seed", "dump-seed"],
    )
    def test_a_flag_the_command_does_not_read_exits_one(self, tmp_path, monkeypatch, capsys, argv, refused):
        """argparse's usage line and error, exit 1, and no --out path or default run directory."""
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([out if arg == "OUT" else arg for arg in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: cotrain ")
        assert err[-1] == f"cotrain: error: unrecognized arguments: {refused.replace('OUT', out)}"
        assert list(tmp_path.iterdir()) == []

    def test_config_error_returns_one(self, tmp_path):
        code = main(["train", "--config", "missing.cfg", "--out", str(tmp_path / "r")])
        assert code == 1

    def test_bad_override_returns_one(self, tmp_path):
        code = main(["train", "--set", "train.step=5", "--out", str(tmp_path / "r")])
        assert code == 1


class TestCliTrain:
    def test_train_writes_run_directory(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", tiny_ini, "--out", str(out), "--seed", "9"])
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "mode,dataset,top1,top5,steps,seed"
        assert len(report) == 3
        assert report[1].startswith("full,aster,")
        assert report[1].endswith(",6,9")
        assert (out / "resolved_config.cfg").exists()
        assert (out / "checkpoint_6.mttn").exists()
        assert (out / "checkpoint_6.mttn.json").exists()
        records = [json.loads(line) for line in (out / "metrics.ndjson").read_text().splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds.count("step") == 6
        assert kinds.count("eval") == 2  # final eval, one line per dataset
        assert "run complete" in capsys.readouterr().out

    def test_identical_runs_are_byte_identical(self, tiny_ini, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", tiny_ini, "--out", str(out_a)]) == 0
        assert main(["train", "--config", tiny_ini, "--out", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (out_a / "metrics.ndjson").read_bytes() == (out_b / "metrics.ndjson").read_bytes()
        assert (out_a / "checkpoint_6.mttn").read_bytes() == (out_b / "checkpoint_6.mttn").read_bytes()

    def test_refuses_nonempty_out_without_force(self, tiny_ini, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_ini, "--out", str(out)]) == 0
        assert main(["train", "--config", tiny_ini, "--out", str(out)]) == 1
        assert main(["train", "--config", tiny_ini, "--out", str(out), "--force"]) == 0

    def test_periodic_checkpoints_and_evals(self, tiny_ini, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "train", "--config", tiny_ini, "--out", str(out),
                "--set", "train.checkpoint_every=2",
                "--set", "report.eval_every=3",
            ]
        )
        assert code == 0
        assert (out / "checkpoint_2.mttn").exists()
        assert (out / "checkpoint_4.mttn").exists()
        assert (out / "checkpoint_6.mttn").exists()
        records = [json.loads(line) for line in (out / "metrics.ndjson").read_text().splitlines()]
        eval_steps = {r["step"] for r in records if r["kind"] == "eval"}
        assert eval_steps == {3, 6}

    def test_one_evaluate_per_eval_point(self, tiny_ini, tmp_path, monkeypatch):
        calls = []

        def counting_evaluate(model, suite, **kw):
            results = real_evaluate(model, suite, **kw)
            calls.append((suite, results))
            return results

        real_evaluate = trainer.evaluate
        monkeypatch.setattr(trainer, "evaluate", counting_evaluate)
        out = tmp_path / "run"
        code = main(["train", "--config", tiny_ini, "--out", str(out), "--set", "report.eval_every=2"])
        assert code == 0
        assert len(calls) == 3  # steps 2 and 4, then the final evaluation at 6
        records = [json.loads(line) for line in (out / "metrics.ndjson").read_text().splitlines()]
        expected = [
            {"kind": "eval", "step": step, "dataset": spec.name, "top1": r[spec.id].top1, "top5": r[spec.id].top5}
            for step, (suite, r) in zip((2, 4, 6), calls)
            for spec in suite.specs
        ]
        assert [r for r in records if r["kind"] == "eval"] == expected

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("report.eval_batch=-4", "report.eval_batch must be >= 1, got -4"),
            ("report.eval_batch=0", "report.eval_batch must be >= 1, got 0"),
            (
                "report.eval_every=-3",
                "report.eval_every must be 0 (final evaluation only) or a positive step count, got -3",
            ),
        ],
    )
    def test_bad_eval_setting_is_refused_before_training(self, tiny_ini, tmp_path, monkeypatch, capsys, setting, message):
        """One line and exit 1, and no step runs: ``eval_batch=-4`` had reported top-1 0.0 for every dataset."""
        steps = []
        monkeypatch.setattr(trainer, "train_steps", lambda *args: steps.append(args))
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_ini, "--out", str(out), "--set", setting]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert steps == []

    def test_negative_checkpoint_every_is_refused_before_training(self, tiny_ini, tmp_path, monkeypatch, capsys):
        """One line and exit 1: ``-2`` had written checkpoints at steps 2, 4 and 6."""
        steps = []
        monkeypatch.setattr(trainer, "train_steps", lambda *args: steps.append(args))
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_ini, "--out", str(out), "--set", "train.checkpoint_every=-2"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: train.checkpoint_every must be 0 (final checkpoint only) or a positive step count, got -2"
        ]
        assert steps == []
        assert not list(out.glob("*.mttn*"))

    def test_projection_branch_mode_refuses_one_dataset(self, tiny_ini, tmp_path, capsys):
        """One line and exit 1: this setting had ended in a ContractError traceback at the first step."""
        out = tmp_path / "run"
        overrides = ["--set", "datasets.count=1", "--set", "train.mode=wo_informative_wo_projadd"]
        assert main(["train", "--config", tiny_ini, "--out", str(out), *overrides]) == 1
        assert capsys.readouterr().err.splitlines() == [ONE_DATASET_BRANCH_ERROR]

    @pytest.mark.parametrize("mode", ["full", "vanilla", "wo_informative", "wo_projection"])
    def test_other_modes_train_on_one_dataset(self, tiny_ini, tmp_path, mode):
        out = tmp_path / "run"
        overrides = ["--set", "datasets.count=1", "--set", f"train.mode={mode}"]
        assert main(["train", "--config", tiny_ini, "--out", str(out), *overrides]) == 0
        assert (out / "report.csv").read_text().splitlines()[1].startswith(f"{mode},")


class TestCliEvalAndInspect:
    @pytest.fixture()
    def trained_run(self, tiny_ini, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_ini, "--out", str(out)]) == 0
        return out

    def test_eval_prints_per_dataset(self, trained_run, tiny_ini, capsys):
        code = main(
            ["eval", "--config", tiny_ini, "--checkpoint", str(trained_run / "checkpoint_6.mttn")]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("aster") for line in lines)
        assert any(line.startswith("briar") for line in lines)

    def test_eval_uses_sibling_config(self, trained_run, capsys):
        """Without --config, eval reads the run's resolved_config.cfg: the defaults had failed with "has shape"."""
        code = main(["eval", "--checkpoint", str(trained_run / "checkpoint_6.mttn")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["aster", "briar"]

    def test_inspect_uses_sibling_config(self, trained_run, capsys):
        code = main(
            ["inspect-projections", "--checkpoint", str(trained_run / "checkpoint_6.mttn")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "projection aster (0) -> briar (1)" in out
        assert "alias agreement:" in out

    def test_eval_refuses_a_bad_batch_size(self, trained_run, tiny_ini, capsys):
        checkpoint = str(trained_run / "checkpoint_6.mttn")
        code = main(["eval", "--config", tiny_ini, "--checkpoint", checkpoint, "--set", "report.eval_batch=0"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: report.eval_batch must be >= 1, got 0"]

    def test_inspect_single_pair_with_clamp(self, trained_run, capsys):
        code = main(
            [
                "inspect-projections",
                "--checkpoint", str(trained_run / "checkpoint_6.mttn"),
                "--pair", "1:0", "--top", "99",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clamping --top 99 to 16" in out
        assert "projection briar (1) -> aster (0)" in out

    def test_inspect_rejects_bad_pair(self, trained_run):
        code = main(
            [
                "inspect-projections",
                "--checkpoint", str(trained_run / "checkpoint_6.mttn"),
                "--pair", "zero:one",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("pair", ["0:9", "1:1"])
    def test_inspect_rejects_unknown_or_self_pair(self, trained_run, pair, capsys):
        """An unknown dataset id, or a dataset paired with itself, is one line and exit 1."""
        code = main(
            ["inspect-projections", "--checkpoint", str(trained_run / "checkpoint_6.mttn"), "--pair", pair]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --pair {pair}: needs two different dataset ids in 0..1"]

    def test_inspect_refuses_bankless_mode(self, tiny_ini, tmp_path):
        out = tmp_path / "vrun"
        assert main(
            ["train", "--config", tiny_ini, "--out", str(out), "--set", "train.mode=vanilla"]
        ) == 0
        code = main(
            ["inspect-projections", "--checkpoint", str(out / "checkpoint_6.mttn")]
        )
        assert code == 1


class TestCliBadCheckpoint:
    """A missing, truncated or mismatched checkpoint exits 1 with one line, not a traceback."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt")
        ini = root / "tiny.cfg"
        ini.write_text(TINY_INI)
        out = root / "run"
        assert main(["train", "--config", str(ini), "--out", str(out)]) == 0
        truncated = root / "truncated.mttn"
        blob = (out / "checkpoint_6.mttn").read_bytes()
        truncated.write_bytes(blob[: len(blob) // 2])
        arrays = load_arrays(out / "checkpoint_6.mttn")
        save_arrays(root / "no_moments.mttn", {k: v for k, v in arrays.items() if not k.startswith("opt.")})
        # A (1, n) moment for an (n,) vector would broadcast silently on a plain copy.
        key = next(k for k, v in arrays.items() if k.startswith("opt.m.") and v.ndim == 1)
        save_arrays(root / "bad_moment.mttn", {**arrays, key: arrays[key][None]})
        manifest = (out / "checkpoint_6.mttn.json").read_bytes()
        for name in ("truncated", "no_moments", "bad_moment"):
            (root / f"{name}.mttn.json").write_bytes(manifest)
        (root / "bad_manifest.mttn").write_bytes(blob)
        # Cut before the closing brace, so the parser reports what it was expecting.
        (root / "bad_manifest.mttn.json").write_bytes(manifest[: manifest.rindex(b"}")])
        (root / "no_step.mttn").write_bytes(blob)
        no_step = {k: v for k, v in json.loads(manifest).items() if k != "step"}
        (root / "no_step.mttn.json").write_text(json.dumps(no_step))
        (root / "not_utf8.mttn").write_bytes(blob)
        (root / "not_utf8.mttn.json").write_bytes(b'\xff\xfe{"step": 6}')
        return root

    @pytest.mark.parametrize("command", ["eval", "inspect-projections"])
    @pytest.mark.parametrize(
        "case,overrides,needle",
        [
            ("missing.mttn", [], "No such file or directory"),
            ("truncated.mttn", [], "truncated"),
            ("run/checkpoint_6.mttn", ["--set", "backbone.stage_dims=16"], "has shape"),
            ("no_moments.mttn", [], "optimizer moment arrays"),
            ("bad_moment.mttn", [], "optimizer entry 'opt.m."),
            ("bad_manifest.mttn", [], "Expecting"),
            ("no_step.mttn", [], "manifest has no non-negative integer 'step', got None"),
            ("not_utf8.mttn", [], "can't decode byte 0xff in position 0"),
        ],
    )
    def test_exits_one_with_a_message(self, run_dir, command, case, overrides, needle, capsys):
        path = run_dir / case
        argv = [command, "--config", str(run_dir / "tiny.cfg"), "--checkpoint", str(path), *overrides]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: ")
        assert needle in err[0]


class TestCliAblate:
    def test_ablate_covers_all_modes(self, tiny_ini, tmp_path):
        out = tmp_path / "abl"
        code = main(["ablate", "--config", tiny_ini, "--out", str(out), "--seeds", "1"])
        assert code == 0
        table = (out / "ablate.csv").read_text().splitlines()
        assert len(table) == 1 + 5 * 2  # header, five modes x two datasets
        modes = {line.split(",")[0] for line in table[1:]}
        assert modes == {"full", "vanilla", "wo_informative", "wo_informative_wo_projadd", "wo_projection"}
        assert (out / "full_seed1" / "report.csv").exists()
        assert (out / "vanilla_seed1" / "metrics.ndjson").exists()

    def test_each_run_writes_its_config_and_its_checkpoints_load_without_overrides(self, tiny_ini, tmp_path, capsys):
        """``eval`` and ``inspect-projections`` of an ablation's checkpoint read that run's own config.

        With only the ablation's resolved_config.cfg, they fell back to the
        defaults and exited 1 with a list of missing parameters.
        """
        out = tmp_path / "abl"
        assert main(["ablate", "--config", tiny_ini, "--out", str(out), "--seeds", "1"]) == 0
        base = RunConfig.load(str(out / "resolved_config.cfg"))
        for mode in trainer.MODES:
            run_dir = out / f"{mode}_seed1"
            cfg = RunConfig.load(str(run_dir / "resolved_config.cfg"))
            assert cfg.get("train", "mode") == mode and cfg.get("train", "seed") == 1
            assert cfg.render() == base.for_run(mode, 1).render()
            assert json.loads((run_dir / "checkpoint_6.mttn.json").read_text())["config_hash"] == cfg.hash()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "vanilla_seed1" / "checkpoint_6.mttn")]) == 0
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["aster", "briar"]
        inspect = ["inspect-projections", "--checkpoint"]
        assert main([*inspect, str(out / "wo_informative_seed1" / "checkpoint_6.mttn")]) == 0
        assert "projection aster (0) -> briar (1)" in capsys.readouterr().out
        # vanilla trains no bank: refused for what the run is, not for a config it is not
        assert main([*inspect, str(out / "vanilla_seed1" / "checkpoint_6.mttn")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: this mode trains no projection bank; nothing to inspect"]

    def test_ablate_refuses_one_dataset_at_the_projection_branch_mode(self, tiny_ini, tmp_path, capsys):
        """Refused before any mode trains: this had trained full, vanilla and wo_informative first."""
        out = tmp_path / "abl"
        code = main(["ablate", "--config", tiny_ini, "--out", str(out), "--seeds", "1", "--set", "datasets.count=1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [ONE_DATASET_BRANCH_ERROR]
        assert not [line for line in captured.out.splitlines() if line.startswith("done:")]
        assert not out.exists()  # refused before the run directory is made

    def test_ablate_rejects_non_integer_seed(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["ablate", "--config", tiny_ini, "--out", str(out), "--seeds", "1,x"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --seeds must be comma-separated integers, got '1,x'"]
        assert not out.exists()  # refused before the run directory is made

    def test_ablate_rejects_empty_seeds(self, tiny_ini, tmp_path):
        code = main(["ablate", "--config", tiny_ini, "--out", str(tmp_path / "x"), "--seeds", " "])
        assert code == 1


class TestCliRefusals:
    @pytest.mark.parametrize("argv, message", REFUSED_SETTINGS.values(), ids=REFUSED_SETTINGS.keys())
    def test_a_refused_setting_writes_nothing(self, tiny_ini, tmp_path, monkeypatch, capsys, argv, message):
        """Exit 1 with one line, no training step and no --out path."""
        steps = []
        monkeypatch.setattr(trainer, "train_steps", lambda *args: steps.append(args))
        out = tmp_path / "out"
        assert main([*argv, "--config", tiny_ini, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert steps == []
        assert not out.exists()


class TestRunBytes:
    """What a run writes, byte for byte; only the manifests' config hash may differ."""

    @staticmethod
    def _check(out, digests, manifests, configs=("resolved_config.cfg",)):
        files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert files == sorted([*digests, *manifests, *configs])
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests
        for name, step in manifests.items():
            manifest = json.loads((out / name).read_text())
            assert sorted(manifest) == ["config_hash", "step"]
            assert manifest["step"] == step

    def test_train_writes_the_recorded_bytes(self, tiny_ini, tmp_path):
        out = tmp_path / "run"
        settings = ["--set", "train.checkpoint_every=2", "--set", "report.eval_every=3"]
        assert main(["train", "--config", tiny_ini, "--out", str(out), *settings]) == 0
        self._check(out, TRAIN_DIGESTS, {f"checkpoint_{step}.mttn.json": step for step in (2, 4, 6)})

    @pytest.mark.usefixtures("use_pool")  # gives the module back its pool after the patched CPU count
    @pytest.mark.parametrize("processes", [1, 2])
    def test_ablate_writes_the_recorded_bytes(self, tiny_ini, tmp_path, monkeypatch, processes):
        """The same bytes whether ``run_matrix`` trains the runs here or in forked processes."""
        monkeypatch.setattr(tensor, "_cpu_count", lambda: processes)
        out = tmp_path / "abl"
        assert main(["ablate", "--config", tiny_ini, "--out", str(out), "--seeds", "1"]) == 0
        runs = {name.split("/")[0] for name in ABLATE_DIGESTS if "/" in name}
        configs = ["resolved_config.cfg", *(f"{run}/resolved_config.cfg" for run in runs)]
        self._check(out, ABLATE_DIGESTS, {f"{run}/checkpoint_6.mttn.json": 6 for run in runs}, configs)


class TestCliNumericFailure:
    @pytest.mark.usefixtures("use_pool")  # gives the module back its pool after the patched CPU count
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--seeds", "1,2"]], ids=["train", "ablate"])
    def test_a_nan_loss_exits_three_with_one_line(self, tiny_ini, tmp_path, monkeypatch, capfd, command):
        """NaN clips make the first step's loss NaN; ``ablate``'s forked workers inherit the patch."""
        sample = trainer.sample_mixed_batch

        def nan_batch(*args):
            batch = sample(*args)
            batch.clips = np.full_like(batch.clips, np.nan)
            return batch

        monkeypatch.setattr(trainer, "sample_mixed_batch", nan_batch)
        monkeypatch.setattr(tensor, "_cpu_count", lambda: 2)
        assert main([*command, "--config", tiny_ini, "--out", str(tmp_path / "out")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ")
        assert multiprocessing.active_children() == []


class TestCliDumpDataset:
    def test_dump_writes_clips_and_index(self, tiny_ini, tmp_path):
        out = tmp_path / "dump"
        code = main(
            ["dump-dataset", "--config", tiny_ini, "--out", str(out), "--limit", "3"]
        )
        assert code == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index) == 6
        assert index[0]["key"] == "aster/train/00000"
        assert index[0]["class"] == "aster/00"
        arrays = load_arrays(out / "clips.mttn")
        assert set(a["key"] for a in index) == set(arrays)
        assert arrays["aster/train/00000"].shape == (4, 8, 8, 1)
        assert arrays["aster/train/00000"].dtype == np.float32

    def test_dump_rejects_negative_limit(self, tiny_ini, tmp_path, capsys):
        """``--limit -1`` used to slice off the last clip of every dataset."""
        out = tmp_path / "dump"
        code = main(["dump-dataset", "--config", tiny_ini, "--out", str(out), "--limit", "-1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --limit must be 0 (whole split) or a positive count, got -1"]
        assert not out.exists()

    def test_dump_test_split_uses_offset_ids(self, tiny_ini, tmp_path):
        out = tmp_path / "dump"
        code = main(
            ["dump-dataset", "--config", tiny_ini, "--out", str(out), "--split", "test", "--limit", "2"]
        )
        assert code == 0
        index = json.loads((out / "index.json").read_text())
        assert index[0]["sample_id"] == 16
        assert index[0]["key"] == "aster/test/00016"


class TestCliGradcheck:
    def test_gradcheck_passes(self, capsys):
        code = main(["gradcheck"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_impossible_tolerance_fails_with_code_two(self, capsys):
        code = main(["gradcheck", "--threshold-scale", "1e-12"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out


class TestMallocPinning:
    """``main`` pins glibc's malloc thresholds, as the benchmark's environment does."""

    def _pin(self, monkeypatch, libc_version, result):
        """Run ``_pin_malloc`` against a fake C library whose mallopt returns ``result``."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        libc = type("FakeLibc", (), {})()
        libc.mallopt = mallopt
        monkeypatch.setattr(libc_module.os, "confstr", lambda name: libc_version)
        monkeypatch.setattr(libc_module.ctypes, "CDLL", lambda name: libc)
        cli._pin_malloc()
        return calls

    def test_sets_mmap_and_trim_thresholds_on_glibc(self, monkeypatch, capsys):
        calls = self._pin(monkeypatch, "glibc 2.36", 1)
        assert calls == [(-3, 1 << 30), (-1, -1)]  # M_MMAP_THRESHOLD 1 GiB, M_TRIM_THRESHOLD never
        assert capsys.readouterr().err == ""

    def test_a_refused_setting_is_one_warning_line_each(self, monkeypatch, capsys):
        assert len(self._pin(monkeypatch, "glibc 2.36", 0)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: mallopt(M_MMAP_THRESHOLD, 1073741824) failed; glibc's default applies",
            "warning: mallopt(M_TRIM_THRESHOLD, -1) failed; glibc's default applies",
        ]

    def test_other_c_libraries_are_left_alone(self, monkeypatch):
        assert self._pin(monkeypatch, None, 1) == []

    def test_main_pins_before_running_a_command(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "_pin_malloc", lambda: calls.append("pinned"))
        assert main(["dump-dataset", "--out", str(tmp_path / "d"), "--limit", "-1"]) == 1
        assert calls == ["pinned"]
