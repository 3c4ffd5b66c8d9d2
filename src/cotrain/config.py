"""Run configuration: INI files with a closed schema.

Every key lives in one of five sections and has a typed default, so a config
file (or ``--set section.key=value`` override) only ever narrows the run.
Unknown sections or keys abort before any computation with the offending key
path.  The fully resolved configuration can be rendered back out; runs echo it
into their output directory and hash it into checkpoint manifests.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .backbone import BackboneConfig, StageConfig
from .data import BiasProfile, SyntheticSuite, generate_synthetic_suite
from .errors import ConfigError
from .trainer import LossConfig, TrainConfig, TrainState


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


_PARSERS = {
    "int": int,
    "float": float,
    "str": lambda s: s.strip(),
    "ints": _parse_int_list,
    "floats": _parse_float_list,
}


def _render(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


# (type, default) for every key.  Empty tuples mean "derive a default".
SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "backbone": {
        "input_t": ("int", 8),
        "input_h": ("int", 16),
        "input_w": ("int", 16),
        "input_c": ("int", 1),
        "patch_t": ("int", 2),
        "patch_h": ("int", 4),
        "patch_w": ("int", 4),
        "stage_blocks": ("ints", (2, 2)),
        "stage_dims": ("ints", (16, 32)),
        "stage_heads": ("ints", (2, 4)),
        "stage_q_strides": ("ints", (1, 2)),
        "stage_kv_strides": ("ints", (1, 1)),
        "mlp_ratio": ("float", 4.0),
        "ln_eps": ("float", 1e-5),
    },
    "loss": {
        "eps": ("float", 1e-4),
        "expander_hidden": ("int", 0),
        "sigma_init": ("float", 1.0),
    },
    "datasets": {
        "seed": ("int", 7),
        "count": ("int", 3),
        "classes": ("ints", (4,)),
        "train_size": ("ints", (200,)),
        "test_size": ("ints", (100,)),
        "concepts": ("int", 0),
        "shared_classes": ("int", -1),
        "mixing": ("str", "proportional"),
        "bias_offsets": ("floats", ()),
        "bias_noise": ("floats", ()),
        "bias_decimation": ("ints", ()),
        "bias_blob_scale": ("floats", ()),
    },
    "train": {
        "steps": ("int", 2000),
        "batch_size": ("int", 16),
        "base_lr": ("float", 1e-3),
        "lr_min": ("float", 0.0),
        "warmup_steps": ("int", 300),
        "weight_decay": ("float", 0.05),
        "beta1": ("float", 0.9),
        "beta2": ("float", 0.999),
        "adam_eps": ("float", 1e-8),
        "grad_clip": ("float", 1.0),
        "seed": ("int", 1),
        "mode": ("str", "full"),
        "checkpoint_every": ("int", 0),
    },
    "report": {
        "eval_every": ("int", 0),
        "eval_batch": ("int", 64),
        "top_pairs": ("int", 5),
    },
}


@dataclass
class RunConfig:
    values: dict[str, dict[str, Any]]

    def get(self, section: str, key: str) -> Any:
        return self.values[section][key]

    # -- construction --------------------------------------------------------

    @staticmethod
    def defaults() -> "RunConfig":
        return RunConfig({s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()})

    @staticmethod
    def load(path: Optional[str] = None, overrides: Optional[list[str]] = None) -> "RunConfig":
        """Defaults, then an optional INI file, then ``section.key=value`` overrides."""
        cfg = RunConfig.defaults()
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            try:
                read = parser.read(path)
            except configparser.Error as err:
                raise ConfigError(f"cannot parse config file {path}: {err}") from None
            if not read:
                raise ConfigError(f"config file not found: {path}")
            for section in parser.sections():
                if section not in SCHEMA:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, raw in parser.items(section):
                    cfg._assign(section, key, raw)
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"override must look like section.key=value, got '{item}'")
            dotted, raw = item.split("=", 1)
            if dotted.count(".") != 1:
                raise ConfigError(f"override key must be section.key, got '{dotted}'")
            section, key = dotted.split(".")
            cfg._assign(section, key, raw)
        return cfg

    def _assign(self, section: str, key: str, raw: str) -> None:
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        kind = SCHEMA[section][key][0]
        try:
            self.values[section][key] = _PARSERS[kind](raw)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad value for {section}.{key}: {err}") from None

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        out = io.StringIO()
        for section, keys in SCHEMA.items():
            out.write(f"[{section}]\n")
            for key in keys:
                out.write(f"{key} = {_render(self.values[section][key])}\n")
            out.write("\n")
        return out.getvalue()

    def hash(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()[:16]

    # -- materialization ---------------------------------------------------------

    def backbone_config(self) -> BackboneConfig:
        v = self.values["backbone"]
        counts = {len(v[k]) for k in ("stage_blocks", "stage_dims", "stage_heads")}
        if len(counts) != 1:
            raise ConfigError("backbone stage lists must have equal lengths")
        n = counts.pop()
        q = _broadcast_stage_list(v["stage_q_strides"], n, "backbone.stage_q_strides")
        kv = _broadcast_stage_list(v["stage_kv_strides"], n, "backbone.stage_kv_strides")
        stages = tuple(
            StageConfig(
                blocks=v["stage_blocks"][i],
                dim=v["stage_dims"][i],
                heads=v["stage_heads"][i],
                q_stride=(q[i], q[i], q[i]),
                kv_stride=(kv[i], kv[i], kv[i]),
            )
            for i in range(n)
        )
        return BackboneConfig(
            input_shape=(v["input_t"], v["input_h"], v["input_w"], v["input_c"]),
            patch=(v["patch_t"], v["patch_h"], v["patch_w"]),
            stages=stages,
            mlp_ratio=v["mlp_ratio"],
            ln_eps=v["ln_eps"],
        )

    def loss_config(self) -> LossConfig:
        v = self.values["loss"]
        return LossConfig(
            eps=v["eps"],
            expander_hidden=v["expander_hidden"],
            sigma_init=v["sigma_init"],
        )

    def train_config(self, mode: Optional[str] = None, seed: Optional[int] = None) -> TrainConfig:
        v = self.values["train"]
        return TrainConfig(
            mode=mode if mode is not None else v["mode"],
            steps=v["steps"],
            batch_size=v["batch_size"],
            base_lr=v["base_lr"],
            lr_min=v["lr_min"],
            warmup_steps=v["warmup_steps"],
            weight_decay=v["weight_decay"],
            beta1=v["beta1"],
            beta2=v["beta2"],
            adam_eps=v["adam_eps"],
            grad_clip=v["grad_clip"],
            seed=seed if seed is not None else v["seed"],
            mixing=self.values["datasets"]["mixing"],
        )

    def run_settings(self) -> dict[str, int]:
        """``report.eval_every``, ``report.eval_batch`` and ``train.checkpoint_every``, keyed as :func:`trainer.run` takes them.

        Out-of-range values are a usage error.
        """
        eval_every, eval_batch = self.get("report", "eval_every"), self.get("report", "eval_batch")
        checkpoint_every = self.get("train", "checkpoint_every")
        if eval_every < 0:
            raise ConfigError(
                f"report.eval_every must be 0 (final evaluation only) or a positive step count, got {eval_every}"
            )
        if eval_batch < 1:
            raise ConfigError(f"report.eval_batch must be >= 1, got {eval_batch}")
        if checkpoint_every < 0:
            raise ConfigError(
                f"train.checkpoint_every must be 0 (final checkpoint only) or a positive step count, got {checkpoint_every}"
            )
        return {"eval_every": eval_every, "eval_batch": eval_batch, "checkpoint_every": checkpoint_every}

    def train_state(
        self, suite: Optional[SyntheticSuite] = None, mode: Optional[str] = None, seed: Optional[int] = None
    ) -> TrainState:
        """A fresh state for this config, its checkpoints tagged with :meth:`hash`.

        ``mode`` and ``seed`` are as in :meth:`train_config`; ``suite`` is a new
        :meth:`suite` unless runs share one.
        """
        return TrainState.create(
            self.backbone_config(),
            self.suite() if suite is None else suite,
            self.train_config(mode=mode, seed=seed),
            self.loss_config(),
            config_hash=self.hash(),
        )

    def suite(self) -> SyntheticSuite:
        v = self.values["datasets"]
        count = v["count"]
        classes = _broadcast_stage_list(v["classes"], count, "datasets.classes")
        train_sizes = _broadcast_stage_list(v["train_size"], count, "datasets.train_size")
        test_sizes = _broadcast_stage_list(v["test_size"], count, "datasets.test_size")
        biases = None
        bias_lists = (v["bias_offsets"], v["bias_noise"], v["bias_decimation"], v["bias_blob_scale"])
        if any(len(b) for b in bias_lists):
            offsets = _broadcast_stage_list(v["bias_offsets"] or (0.0,), count, "datasets.bias_offsets")
            noise = _broadcast_stage_list(v["bias_noise"] or (0.0,), count, "datasets.bias_noise")
            decim = _broadcast_stage_list(v["bias_decimation"] or (1,), count, "datasets.bias_decimation")
            scale = _broadcast_stage_list(v["bias_blob_scale"] or (1.0,), count, "datasets.bias_blob_scale")
            biases = [
                BiasProfile(offsets[k], noise[k], decim[k], scale[k]) for k in range(count)
            ]
        bb = self.values["backbone"]
        return generate_synthetic_suite(
            seed=v["seed"],
            num_datasets=count,
            class_counts=list(classes),
            train_sizes=list(train_sizes),
            test_sizes=list(test_sizes),
            concept_count=v["concepts"] or None,
            shared_classes=None if v["shared_classes"] < 0 else v["shared_classes"],
            biases=biases,
            clip_shape=(bb["input_t"], bb["input_h"], bb["input_w"], bb["input_c"]),
        )


def _broadcast_stage_list(values: tuple, n: int, path: str) -> tuple:
    """A length-1 list applies to every position; otherwise lengths must match."""
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ConfigError(f"{path} needs 1 or {n} comma-separated values, got {len(values)}")
    return values


def write_resolved(cfg: RunConfig, directory) -> Path:
    path = Path(directory) / "resolved_config.cfg"
    path.write_text(cfg.render())
    return path
