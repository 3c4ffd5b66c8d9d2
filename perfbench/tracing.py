"""Span tracer that times cotrain's public functions from outside the package.

``Tracer.install`` replaces each target attribute (a module function, a method,
or a static method) with a wrapper that records a span ``[name, start, end,
parent, step]`` and calls the original.  Spans stay in a list in memory; the
benchmark writes them out when the run ends.  ``Tracer.uninstall`` puts every
original object back, so an untraced run executes exactly the package's code.

The forward pass of a training step (``trainer.compute_step_loss``) runs under
``tensor.count_ops`` so every step also records its exact op and flop counts.
"""
from __future__ import annotations

import time
from collections import defaultdict

from cotrain import backbone, config, data, losses, nn, optim, tensor, trainer

# tensor-module op functions and the name ``count_ops`` files each under.
TENSOR_OPS = {
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "div": "div",
    "neg": "neg",
    "power": "pow",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "relu": "relu",
    "gelu": "gelu",
    "reshape": "reshape",
    "transpose": "transpose",
    "gather_rows": "gather_rows",
    "reduce_sum": "sum",
    "reduce_mean": "mean",
    "matmul": "matmul",
    "softmax": "softmax",
    "log_softmax": "log_softmax",
    "layer_norm": "layer_norm",
    "conv3d": "conv3d",
}


def targets() -> list[tuple[object, str, str]]:
    """Every ``(owner, attribute, span name)`` the traced run wraps.

    Functions that another module imported by name are wrapped at that name
    too (``trainer.gather_rows``, ``trainer.save_arrays``, ...), because that
    is the binding the caller looks up.
    """
    out = [(tensor, fn, "op." + op) for fn, op in TENSOR_OPS.items()]
    out += [
        (trainer, "gather_rows", "op.gather_rows"),
        (tensor.Tensor, "backward", "tensor.backward"),
        (nn.Linear, "__call__", "nn.linear"),
        (nn.LayerNorm, "__call__", "nn.layer_norm"),
        (nn.Mlp, "__call__", "nn.mlp"),
        (nn.PoolConv, "__call__", "nn.pool_conv"),
        (backbone.Backbone, "__call__", "backbone"),
        (backbone.Block, "__call__", "backbone.block"),
        (backbone.PooledAttention, "__call__", "backbone.attn"),
        (losses.HeadBank, "__call__", "losses.heads"),
        (losses.HeadBank, "all_logits", "losses.heads"),
        (losses, "project_logits", "losses.projection"),
        (losses, "projection_only_logits", "losses.projection"),
        (losses, "cross_entropy", "losses.ce"),
        (losses.Expander, "__call__", "losses.informative"),
        (losses, "variance_loss", "losses.informative"),
        (losses, "covariance_loss", "losses.informative"),
        (losses, "total_loss", "losses.combine"),
        (optim.AdamW, "step", "optim.step"),
        (optim.AdamW, "zero_grad", "optim.zero_grad"),
        (trainer, "compute_step_loss", "trainer.forward"),
        (trainer, "sample_mixed_batch", "data.sample"),
        (trainer, "evaluate", "trainer.evaluate"),
        (trainer, "save_arrays", "tensor_io.save"),
        (trainer, "load_arrays", "tensor_io.load"),
        (trainer.TrainState, "create", "trainer.create_state"),
        (data.SyntheticSuite, "clip", "data.clip"),
        (config.RunConfig, "load", "config.load"),
        (config.RunConfig, "backbone_config", "config.resolve"),
        (config.RunConfig, "train_config", "config.resolve"),
        (config.RunConfig, "loss_config", "config.resolve"),
        (config.RunConfig, "suite", "data.suite"),
    ]
    return out


def current(owner, attr):
    """The object stored under ``attr`` on ``owner`` itself (no descriptor binding)."""
    return vars(owner)[attr]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, step id]
        self.step = None
        self.op_counts: dict[object, tuple[dict[str, int], int]] = {}
        self.unit_stride_pool_calls: dict[object, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.step])
        self._stack.append(idx)
        return idx

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def discard_open(self, depth: int) -> None:
        """Drop spans still open above stack ``depth`` (a step span left open, or an aborted call)."""
        while len(self._stack) > depth:
            idx = self._stack.pop()
            if idx == len(self.spans) - 1:
                self.spans.pop()
            else:
                self.spans[idx][2] = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        open_, close = self.open, self.close
        if name == "trainer.forward":
            counts = self.op_counts

            def traced(*args, **kwargs):
                open_(name)
                try:
                    with tensor.count_ops() as counter:
                        out = fn(*args, **kwargs)
                    counts[self.step] = (dict(counter.ops), counter.flops)
                    return out
                finally:
                    close()

        elif name == "nn.pool_conv":
            unit = self.unit_stride_pool_calls

            def traced(module, *args, **kwargs):
                open_(name)
                try:
                    if tuple(module.stride) == (1, 1, 1):
                        unit[self.step] += 1
                    return fn(module, *args, **kwargs)
                finally:
                    close()

        else:

            def traced(*args, **kwargs):
                open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in targets():
            original = current(owner, attr)
            if isinstance(original, staticmethod):
                replacement = staticmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False



# Spans whose descendants' op nodes are tallied separately.
NODE_SCOPES = ("backbone", "losses.heads", "losses.projection", "losses.informative")


def tabulate(spans: list[list]) -> tuple[dict, dict]:
    """Group spans by step id.

    Returns ``(times, nodes)``: ``times[step][name] = [inclusive s, self s,
    calls]`` where self time is the span's duration minus its children's, and
    ``nodes[step][scope]`` counts the ``op.*`` spans under each outermost
    :data:`NODE_SCOPES` span.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    scope: list = [None] * len(spans)
    times: dict = defaultdict(dict)
    nodes: dict = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, parent, step) in enumerate(spans):
        outer = scope[parent] if parent >= 0 else None
        scope[i] = outer or (name if name in NODE_SCOPES else None)
        row = times[step].setdefault(name, [0.0, 0.0, 0])
        # A span nested in one of the same name (none today) would count twice.
        row[0] += end - start
        row[1] += end - start - child_time[i]
        row[2] += 1
        if outer is not None and name.startswith("op."):
            nodes[step][outer] += 1
    return times, nodes
