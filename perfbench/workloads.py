"""The benchmark's workloads: ``--set`` overrides on the shipped config.

Each workload is a closed loop with one client: a training step starts only
when the previous one has finished.  ``warmup`` steps run untimed before the
first measurement.  ``horizon`` is a fixed step count, independent of the time
budget: the loss guard and the fingerprints are taken at that step, so they
repeat exactly for a given seed on any machine.  With ``loss_guard`` the mean
loss over the last tenth of the horizon must be below that of the first tenth.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    why: str
    warmup: int
    horizon: int
    loss_guard: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default_full",
            overrides=(),
            why=(
                "Shipped config (mode full, 3 datasets x 4 classes, 8x16x16 clips, B=16), the "
                "ROADMAP reference step: dispatch-bound at 299 tape nodes, so tape-node and "
                "pool-conv changes show here."
            ),
            warmup=5,
            horizon=200,
        ),
        Workload(
            name="many_heads_full",
            overrides=(
                "datasets.count=8",
                "datasets.classes=64",
                "datasets.train_size=128",
                "datasets.test_size=64",
                "backbone.stage_blocks=1,1",
            ),
            why=(
                "Paper's many-dataset regime (8 datasets x 64 classes): the O(D^2) "
                "head/projection loop fills the tape and 56 bank matrices load AdamW, so head, "
                "bank and optimizer changes show here."
            ),
            warmup=5,
            horizon=200,
        ),
        Workload(
            name="wide_clip_vanilla",
            overrides=(
                "train.mode=vanilla",
                "backbone.input_h=32",
                "backbone.input_w=32",
                "backbone.stage_dims=32,64",
            ),
            why=(
                "32x32 clips, widths 32/64, mode vanilla: numpy kernels dominate (878 MFLOP "
                "over 223 nodes) and the loss layer is bypassed, so kernel changes show here "
                "and loss-layout changes do not."
            ),
            warmup=2,
            horizon=40,
            # At warm-up learning rates (<= 1.3e-4 by step 40) the vanilla loss
            # stays within batch noise for at least 80 steps, so "the loss fell"
            # would be a coin flip here.
            loss_guard=False,
        ),
    )
}


def overrides_for(workload: Workload, seed: int) -> list[str]:
    """The workload's overrides plus the benchmark seed for data and training."""
    return [*workload.overrides, f"datasets.seed={seed}", f"train.seed={seed}"]
