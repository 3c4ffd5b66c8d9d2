"""Run configuration: INI files with a closed schema.

Every key lives in one of five sections and has a typed default, so a config
file (or ``--set section.key=value`` override) only ever narrows the run.  The
``backbone``, ``loss`` and ``train`` keys and their defaults are read from
:class:`BackboneConfig`, :class:`LossConfig` and :class:`TrainConfig`, which
stay the one place those defaults are written.
Unknown sections or keys abort before any computation with the offending key
path.  The fully resolved configuration can be rendered back out; runs echo it
into their output directory and hash it into checkpoint manifests.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional

from .backbone import BackboneConfig, StageConfig
from .data import BiasProfile, SyntheticSuite, generate_synthetic_suite
from .errors import ConfigError
from .trainer import LossConfig, TrainConfig, TrainState


def _parse_list(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    """A parser of comma-separated ``item`` values; blank text is the empty tuple."""
    return lambda text: tuple(item(part) for part in text.split(",")) if text.strip() else ()


# A field's annotation names its parser (``from __future__ import annotations``
# keeps it a string), so the dataclasses' fields are schema keys as they stand.
_PARSERS = {
    "int": int,
    "float": float,
    "str": lambda s: s.strip(),
    "ints": _parse_list(int),
    "floats": _parse_list(float),
}


def _render(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


def _field_keys(cls, skip: str = "") -> dict[str, tuple[str, Any]]:
    """``(type, default)`` of every field of the dataclass ``cls`` but ``skip``, in field order."""
    return {f.name: (f.type, f.default) for f in fields(cls) if f.name != skip}


def _backbone_keys() -> dict[str, tuple[str, Any]]:
    """:class:`BackboneConfig`'s defaults, one key per input and patch axis and one list per stage field.

    A stride is one value per stage, applied on all three axes.
    """
    bb = BackboneConfig()
    return {
        **{f"input_{axis}": ("int", n) for axis, n in zip("thwc", bb.input_shape)},
        **{f"patch_{axis}": ("int", n) for axis, n in zip("thw", bb.patch)},
        "stage_blocks": ("ints", tuple(stage.blocks for stage in bb.stages)),
        "stage_dims": ("ints", tuple(stage.dim for stage in bb.stages)),
        "stage_heads": ("ints", tuple(stage.heads for stage in bb.stages)),
        "stage_q_strides": ("ints", tuple(stage.q_stride[0] for stage in bb.stages)),
        "stage_kv_strides": ("ints", tuple(stage.kv_stride[0] for stage in bb.stages)),
        "mlp_ratio": ("float", bb.mlp_ratio),
        "ln_eps": ("float", bb.ln_eps),
    }


# (type, default) for every key.  Empty tuples mean "derive a default".
# ``mixing`` is a TrainConfig field but says how the suite is sampled, so it
# sits with the datasets.
SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "backbone": _backbone_keys(),
    "loss": _field_keys(LossConfig),
    "datasets": {
        "seed": ("int", 7),
        "count": ("int", 3),
        "classes": ("ints", (4,)),
        "train_size": ("ints", (200,)),
        "test_size": ("ints", (100,)),
        "concepts": ("int", 0),
        "shared_classes": ("int", -1),
        "mixing": ("str", TrainConfig.mixing),
        "bias_offsets": ("floats", ()),
        "bias_noise": ("floats", ()),
        "bias_decimation": ("ints", ()),
        "bias_blob_scale": ("floats", ()),
    },
    "train": {**_field_keys(TrainConfig, skip="mixing"), "checkpoint_every": ("int", 0)},
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
            input_shape=tuple(v[f"input_{axis}"] for axis in "thwc"),
            patch=tuple(v[f"patch_{axis}"] for axis in "thw"),
            stages=stages,
            mlp_ratio=v["mlp_ratio"],
            ln_eps=v["ln_eps"],
        )

    def loss_config(self) -> LossConfig:
        return LossConfig(**self.values["loss"])

    def train_config(self, seed: Optional[int] = None) -> TrainConfig:
        """The ``train`` section but ``checkpoint_every``, with ``datasets.mixing``.

        ``seed`` overrides its value in the returned config only, so
        :meth:`hash` does not see it; a run that is to carry its own mode and
        seed in its config and hash is built from :meth:`for_run`.
        """
        settings = {**self.values["train"], "mixing": self.get("datasets", "mixing")}
        del settings["checkpoint_every"]
        if seed is not None:
            settings["seed"] = seed
        return TrainConfig(**settings)

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

    def train_state(self, suite: Optional[SyntheticSuite] = None) -> TrainState:
        """A fresh state for this config, its checkpoints tagged with :meth:`hash`.

        ``suite`` is a new :meth:`suite` unless runs share one.
        """
        return TrainState.create(
            self.backbone_config(),
            self.suite() if suite is None else suite,
            self.train_config(),
            self.loss_config(),
            config_hash=self.hash(),
        )

    def for_run(self, mode: str, seed: int) -> "RunConfig":
        """A copy with ``train.mode`` and ``train.seed`` set: the config of one run of an ablation."""
        values = {section: dict(keys) for section, keys in self.values.items()}
        values["train"].update(mode=mode, seed=seed)
        return RunConfig(values)

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
