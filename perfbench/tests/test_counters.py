"""The workloads must still build the programs the recorded baseline measured.

If these counts drift, the harness is timing a different program and its
numbers are not comparable with earlier runs.
"""
from cotrain import trainer
from cotrain.config import RunConfig

import tracing
from workloads import WORKLOADS


def traced_steps(steps, overrides=()):
    cfg = RunConfig.load(None, list(overrides))
    state = trainer.TrainState.create(
        cfg.backbone_config(), cfg.suite(), cfg.train_config(), cfg.loss_config(), cfg.hash()
    )
    tracer = tracing.Tracer()
    with tracer:
        for step in range(steps):
            tracer.step = step
            trainer.train_steps(state, 1)
    return state, tracer


def test_default_forward_counts():
    """The ROADMAP Baseline's counts at the shipped config."""
    state, tracer = traced_steps(1)
    ops, flops = tracer.op_counts[0]
    assert sum(ops.values()) == 299
    assert round(flops / 1e6, 1) == 47.5
    assert ops["conv3d"] == 17
    assert tracer.unit_stride_pool_calls[0] == 14
    assert len(state.opt.params) == 100


def test_many_heads_forward_counts():
    """8 datasets x 64 classes: 102 backbone nodes, then 28 + 50 per dataset in the batch.

    A B=16 batch over 8 datasets holds 6 to 8 of them, so a step has 430 to 530
    forward nodes; the benchmark reports the median over its traced steps.
    """
    state, tracer = traced_steps(12, WORKLOADS["many_heads_full"].overrides)
    times, nodes = tracing.tabulate(tracer.spans)
    seen = set()
    for step in range(12):
        total = sum(tracer.op_counts[step][0].values())
        present = times[step]["losses.ce"][2]  # one cross-entropy per dataset in the batch
        assert nodes[step]["backbone"] == 102
        assert total - nodes[step]["backbone"] == 28 + 50 * present
        seen.add(present)
    assert seen == {6, 7, 8}
    assert len(state.opt.params) == 122
