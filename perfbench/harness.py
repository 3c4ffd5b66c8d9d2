"""One benchmark run: set up a workload, train, evaluate, checkpoint, check.

An untraced run (``run_untraced``) installs nothing and reports the end-to-end
metrics, each time scaled to the reference host speed by ``calibration``.  A
traced run (``run_traced``) alternates untraced and traced training segments in
one process and reports per-layer metrics from the spans, plus the tracing
overhead.  Both train the same state along the same step sequence, so
their fingerprints at the workload's horizon must agree.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from cotrain import trainer
from cotrain.config import RunConfig
from cotrain.errors import NumericError
from cotrain.tensor import Tensor, no_grad

import tracing
from calibration import Calibration
from workloads import Workload, overrides_for

# Share of the time budget each activity of an untraced run gets.
SHARES = {"train": 0.50, "eval": 0.30, "checkpoint": 0.10, "setup": 0.10}
TRAIN_CHUNK_S = 0.25
# Calibration units measured before the first set-up and after the last
# sample, so the samples at the edges of a run have neighbours on both sides.
CAL_EDGE_UNITS = 5
TRACED_SEGMENTS = 6
# Tape ops with their own per-layer call count and forward time.
OPS = (
    "matmul",
    "conv3d",
    "layer_norm",
    "gelu",
    "softmax",
    "log_softmax",
    "add",
    "mul",
    "reshape",
    "transpose",
    "gather_rows",
)


class Failures:
    """Operations attempted and failed, with a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str, ops: int = 1) -> None:
        if not ok:
            self.failed += ops
            self.messages.append(message)


# -- set-up ------------------------------------------------------------------


def set_up(workload: Workload, seed: int):
    """Resolve the config, render every train and test clip, build the state."""
    cfg = RunConfig.load(None, overrides_for(workload, seed))
    suite = cfg.suite()
    for spec in suite.specs:
        for ids in (suite.train_ids(spec.id), suite.test_ids(spec.id)):
            for i in ids:
                suite.clip(spec.id, int(i))
    state = trainer.TrainState.create(
        cfg.backbone_config(), suite, cfg.train_config(), cfg.loss_config(), cfg.hash()
    )
    return cfg, state


def scratch_state(cfg: RunConfig, state) -> "trainer.TrainState":
    """A second state over the same suite with a different initialisation, to load into."""
    seed = state.config.seed + 1
    return trainer.TrainState.create(
        cfg.backbone_config(), state.suite, cfg.train_config(seed=seed), cfg.loss_config(), state.config_hash
    )


# -- fingerprints --------------------------------------------------------------


def param_hash(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(f"{name}:{p.data.dtype.str}:{p.data.shape};".encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def loss_hash(losses: list[float]) -> str:
    return hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()


def same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and np.array_equal(a[k], b[k]) for k in a
    )


def eval_logits(model, suite, batch_size: int) -> list[np.ndarray]:
    """Own-head logits over every test split, batched as ``evaluate`` batches them."""
    out = []
    with no_grad():
        for spec in suite.specs:
            clips, _ = suite.split_arrays(spec.id, "test")
            for start in range(0, len(clips), batch_size):
                z = model.backbone(Tensor(clips[start : start + batch_size]))
                out.append(model.heads(spec.id, z).data)
    return out


# -- training ----------------------------------------------------------------


class Training:
    """Steps one state forward in chunks, timing every step from ``on_report``.

    Chunks never cross the workload's horizon, so the parameter fingerprint is
    taken exactly at that step.  With a tracer, each step is one
    ``trainer.step`` span and the tracer's step id follows the step index.
    """

    def __init__(self, state, workload: Workload, failures: Failures):
        self.state = state
        self.workload = workload
        self.failures = failures
        self.losses: list[float] = []
        self.step_s: list[float] = []
        self.step_t: list[float] = []
        self.busy_s = 0.0
        self.params_at_horizon = ""
        self.broken = False
        self._tracer = None
        self._timed = False
        self._last = 0.0

    def _on_report(self, step: int, lr: float, report) -> None:
        now = time.perf_counter()
        if self._timed:
            self.step_s.append(now - self._last)
            self.step_t.append(self._last)
        self._last = now
        self.losses.append(report.total)
        if self._tracer is not None:
            self._tracer.close()
            self._tracer.step = step + 1
            self._tracer.open("trainer.step")

    def run(self, steps: int, timed: bool, tracer=None) -> None:
        if self.broken:
            return
        horizon = self.workload.horizon
        if self.state.step < horizon:
            steps = min(steps, horizon - self.state.step)
        self._timed, self._tracer = timed, tracer
        depth = len(tracer._stack) if tracer is not None else 0
        if tracer is not None:
            tracer.step = self.state.step
            tracer.open("trainer.step")
        before = self.state.step
        self._last = start = time.perf_counter()
        try:
            trainer.train_steps(self.state, steps, self._on_report)
        except NumericError as err:
            self.broken = True
            self.failures.record(False, f"non-finite loss: {err}")
        finally:
            if timed:
                self.busy_s += time.perf_counter() - start
            if tracer is not None:
                tracer.discard_open(depth)
                tracer.step = None
        self.failures.attempted += self.state.step - before + (1 if self.broken else 0)
        if self.state.step == horizon and not self.params_at_horizon:
            self.params_at_horizon = param_hash(self.state.model)

    def finish_horizon(self, timed: bool, between=lambda: None) -> None:
        while not self.broken and self.state.step < self.workload.horizon:
            self.run(chunk_steps(self), timed)
            between()

    def loss_guard(self) -> tuple[float, float]:
        """Mean loss over the last and the first tenth of the first ``horizon`` steps."""
        h = self.workload.horizon
        tenth = max(1, h // 10)
        window = self.losses[:h]
        return float(np.mean(window[h - tenth :])), float(np.mean(window[:tenth]))

    def fingerprints(self) -> dict:
        return {
            "horizon": self.workload.horizon,
            "params_sha256": self.params_at_horizon,
            "losses_sha256": loss_hash(self.losses[: self.workload.horizon]),
        }


def chunk_steps(training: Training) -> int:
    """Steps per chunk so that one chunk takes about ``TRAIN_CHUNK_S``."""
    recent = training.step_s[-20:]
    if not recent:
        return 1
    return max(1, int(TRAIN_CHUNK_S / statistics.median(recent)))


# -- evaluation and checkpoints --------------------------------------------------


def eval_batches(suite, batch_size: int) -> int:
    return sum(math.ceil(spec.test_size / batch_size) for spec in suite.specs)


class Probes:
    """Timed ``evaluate`` calls and checkpoint round-trips, each checked."""

    def __init__(self, cfg: RunConfig, state, failures: Failures, workdir: Path):
        self.state = state
        self.scratch = scratch_state(cfg, state)
        self.failures = failures
        self.batch = cfg.get("report", "eval_batch")
        self.test_clips = sum(spec.test_size for spec in state.suite.specs)
        self.batches = eval_batches(state.suite, self.batch)
        self.path = workdir / "checkpoint.mttn"
        self.eval_s: list[float] = []
        self.eval_t: list[float] = []
        self.save_s: list[float] = []
        self.save_t: list[float] = []
        self.load_s: list[float] = []
        self.load_t: list[float] = []
        self._reference = None
        self._reference_step = None

    def evaluate(self, timed: bool = True) -> None:
        start = time.perf_counter()
        result = trainer.evaluate(self.state.model, self.state.suite, "test", self.batch)
        elapsed = time.perf_counter() - start
        self.failures.attempted += self.batches
        if timed:
            self.eval_s.append(elapsed)
            self.eval_t.append(start)
        # Two evaluations of one state must agree.
        if self._reference_step == self.state.step:
            self.failures.record(result == self._reference, f"evaluate disagrees at step {self.state.step}", self.batches)
        self._reference, self._reference_step = result, self.state.step

    def checkpoint(self, timed: bool = True) -> None:
        self.failures.attempted += 1
        # Each save creates its files anew, as a run writing checkpoint_<step> files does.
        self.path.unlink(missing_ok=True)
        self.path.with_suffix(".mttn.json").unlink(missing_ok=True)
        start = time.perf_counter()
        trainer.save_checkpoint(self.state, self.path)
        mid = time.perf_counter()
        trainer.load_checkpoint(self.scratch, self.path)
        end = time.perf_counter()
        if timed:
            self.save_s.append(mid - start)
            self.save_t.append(start)
            self.load_s.append(end - mid)
            self.load_t.append(mid)
        ok = (
            self.scratch.step == self.state.step
            and same_arrays(self.scratch.model.state_arrays(), self.state.model.state_arrays())
            and same_arrays(self.scratch.opt.state_arrays(), self.state.opt.state_arrays())
        )
        self.failures.record(ok, f"checkpoint round-trip differs at step {self.state.step}")

    def check_logits(self) -> None:
        """Save, load into the scratch state, and compare eval logits bit for bit."""
        self.checkpoint(timed=False)
        mine = eval_logits(self.state.model, self.state.suite, self.batch)
        theirs = eval_logits(self.scratch.model, self.state.suite, self.batch)
        same = len(mine) == len(theirs) and all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        self.failures.record(same, "eval logits differ after checkpoint load")


# -- environment -----------------------------------------------------------------


def openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas_version(),
        "pinned_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS") or k.startswith("MALLOC_")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def timed_set_up(workload: Workload, seed: int, setup_s: list[float], setup_t: list[float]):
    start = time.perf_counter()
    cfg, state = set_up(workload, seed)
    setup_s.append(time.perf_counter() - start)
    setup_t.append(start)
    return cfg, state


# -- untraced run -------------------------------------------------------------------


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    failures = Failures()
    cal = Calibration()
    for _ in range(CAL_EDGE_UNITS):
        cal.measure()
    setup_s: list[float] = []
    setup_t: list[float] = []
    cfg, state = timed_set_up(workload, seed, setup_s, setup_t)

    training = Training(state, workload, failures)
    probes = Probes(cfg, state, failures, workdir)
    cal.measure()  # the first set-up's neighbour on its far side
    training.run(workload.warmup, timed=False)
    probes.evaluate(timed=False)
    probes.evaluate(timed=False)  # a second evaluation of the same state must agree
    probes.checkpoint(timed=False)
    # The warm-up ran every activity once.  Read the memory peak now: each
    # set-up in the timed loop briefly holds a second suite and state.
    peak_mb = peak_rss_mb()

    # Deficit scheduling: run whichever activity is furthest below its share,
    # so every metric, set-up included, samples the whole run window.  Each
    # extra set-up builds a fresh config, suite and state and drops them.  The
    # calibration kernel runs between activities, outside their shares.
    spent = dict.fromkeys(SHARES, 0.0)
    actions = {
        "train": lambda: training.run(chunk_steps(training), timed=True),
        "eval": probes.evaluate,
        "checkpoint": probes.checkpoint,
        "setup": lambda: timed_set_up(workload, seed, setup_s, setup_t),
    }
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not training.broken:
        name = min(SHARES, key=lambda k: spent[k] / SHARES[k])
        start = time.perf_counter()
        actions[name]()
        spent[name] += time.perf_counter() - start
        cal.maybe()
    training.finish_horizon(timed=True, between=cal.maybe)
    for _ in range(CAL_EDGE_UNITS):
        cal.measure()

    final, first = training.loss_guard()
    failures.record(not training.broken, "training stopped early")
    if workload.loss_guard:
        failures.record(final < first, f"loss did not fall: last tenth {final:.6f} >= first tenth {first:.6f}")
    probes.check_logits()

    steps, busy_s, batch = training.step_s, training.busy_s, state.config.batch_size
    norm = {
        "setup": cal.normalise(setup_t, setup_s),
        "step": cal.normalise(training.step_t, steps),
        "eval": cal.normalise(probes.eval_t, probes.eval_s),
        "save": cal.normalise(probes.save_t, probes.save_s),
        "load": cal.normalise(probes.load_t, probes.load_s),
    }
    test_clips = probes.test_clips
    metrics = {
        "setup_s": metric(statistics.median(norm["setup"]), "s"),
        "train_step_ms_p50": metric(1e3 * statistics.median(norm["step"]), "ms"),
        "eval_clips_per_s": metric(test_clips / statistics.median(norm["eval"]), "clips/s"),
        "checkpoint_save_ms": metric(1e3 * statistics.median(norm["save"]), "ms"),
        "checkpoint_load_ms": metric(1e3 * statistics.median(norm["load"]), "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    detail = {
        "samples": {
            "setup": len(setup_s),
            "train_steps": len(steps),
            "evaluate": len(probes.eval_s),
            "checkpoint": len(probes.save_s),
            "calibration": len(cal.durations),
        },
        "calibration_unit_ms": {
            "p10": 1e3 * percentile(cal.durations, 10),
            "p50": 1e3 * statistics.median(cal.durations),
            "p90": 1e3 * percentile(cal.durations, 90),
        },
        "raw_p50": {
            "setup_s": statistics.median(setup_s),
            "train_step_ms": 1e3 * statistics.median(steps),
            "eval_ms": 1e3 * statistics.median(probes.eval_s),
            "checkpoint_save_ms": 1e3 * statistics.median(probes.save_s),
            "checkpoint_load_ms": 1e3 * statistics.median(probes.load_s),
        },
        "train_step_ms_p90": 1e3 * percentile(norm["step"], 90),
        "train_clips_per_s": batch * len(steps) / busy_s,
        "train_loss_final": final,
        "train_loss_first_tenth": first,
        "failed_op_ratio": failures.failed / max(1, failures.attempted),
        "config_hash": cfg.hash(),
        "fingerprints": training.fingerprints(),
    }
    return finish(failures, metrics, detail)


# -- traced run ----------------------------------------------------------------------


def run_traced(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    failures = Failures()
    originals = [(owner, attr, tracing.current(owner, attr)) for owner, attr, _ in tracing.targets()]
    tracer = tracing.Tracer()
    tracer.step = "setup"
    with tracer:
        cfg, state = set_up(workload, seed)
    tracer.step = None

    training = Training(state, workload, failures)
    probes = Probes(cfg, state, failures, workdir)
    training.run(workload.warmup, timed=False)
    probes.evaluate(timed=False)

    # Alternate untraced and traced segments so host drift hits both alike,
    # and scale every step by the calibration kernel around it.
    cal = Calibration()
    for _ in range(CAL_EDGE_UNITS):
        cal.measure()
    segments: list[tuple[bool, int, int]] = []
    segment = 0.7 * seconds / TRACED_SEGMENTS
    for i in range(TRACED_SEGMENTS):
        traced = i % 2 == 1
        first = len(training.step_s)
        end = time.perf_counter() + segment
        if traced:
            tracer.install()
        try:
            while time.perf_counter() < end and not training.broken:
                training.run(chunk_steps(training), timed=True, tracer=tracer if traced else None)
                cal.maybe()
            if traced:
                tracer.step = "eval"
                probes.evaluate()
                tracer.step = "checkpoint"
                probes.checkpoint()
                tracer.step = None
        finally:
            tracer.uninstall()
        segments.append((traced, first, len(training.step_s)))
    for _ in range(CAL_EDGE_UNITS):
        cal.measure()
    training.finish_horizon(timed=False)
    steps = cal.normalise(training.step_t, training.step_s)
    traced_s = [s for traced, a, b in segments if traced for s in steps[a:b]]
    untraced_s = [s for traced, a, b in segments if not traced for s in steps[a:b]]

    hygienic = all(tracing.current(owner, attr) is orig for owner, attr, orig in originals)
    failures.record(hygienic, "a traced attribute was not restored")
    failures.record(not training.broken, "training stopped early")
    probes.check_logits()

    times, nodes = tracing.tabulate(tracer.spans)
    metrics = layer_metrics(times, nodes, tracer, state, probes, traced_s, untraced_s)
    detail = {
        "samples": {"traced_steps": len(traced_s), "untraced_steps": len(untraced_s)},
        "config_hash": cfg.hash(),
        "fingerprints": training.fingerprints(),
        "self_ms_per_step": self_table(times),
    }
    write_spans(workdir, tracer.spans)
    return finish(failures, metrics, detail)


def self_table(times: dict) -> dict:
    """Median per traced step of inclusive and self ms for every span name."""
    steps = [s for s in times if isinstance(s, int)]
    names = sorted({n for s in steps for n in times[s]})
    table = {}
    for name in names:
        rows = [times[s].get(name, [0.0, 0.0, 0]) for s in steps]
        table[name] = {
            "inclusive_ms": 1e3 * statistics.median(r[0] for r in rows),
            "self_ms": 1e3 * statistics.median(r[1] for r in rows),
            "calls": statistics.median(r[2] for r in rows),
        }
    return table


def layer_metrics(times, nodes, tracer, state, probes, traced_s, untraced_s) -> dict:
    steps = sorted(s for s in times if isinstance(s, int) and s in tracer.op_counts)

    def per_step(fn) -> float:
        return float(statistics.median(fn(s) for s in steps))

    def incl(s, *names) -> float:
        return 1e3 * sum(times[s].get(n, [0.0])[0] for n in names)

    def self_ms(s, name) -> float:
        return 1e3 * times[s].get(name, [0.0, 0.0])[1]

    def calls(s, name) -> int:
        return times[s].get(name, [0.0, 0.0, 0])[2]

    def op_ms(s) -> float:
        return sum(incl(s, n) for n in times[s] if n.startswith("op."))

    def span_ms(step, name) -> list[float]:
        return [1e3 * (e - b) for n, b, e, _, st in tracer.spans if st == step and n == name]

    def per_call(step, name) -> float:
        values = span_ms(step, name)
        return float(statistics.median(values)) if values else 0.0

    def ops_total(s) -> int:
        return sum(tracer.op_counts[s][0].values())

    m: dict[str, dict] = {}
    m["tensor.fwd_nodes"] = metric(per_step(ops_total), "count")
    m["tensor.fwd_mflop"] = metric(per_step(lambda s: tracer.op_counts[s][1] / 1e6), "MFLOP")
    for op in OPS:
        m[f"tensor.op.{op}.calls"] = metric(per_step(lambda s: tracer.op_counts[s][0].get(op, 0)), "count")
    for op in OPS:
        m[f"tensor.op.{op}.fwd_ms"] = metric(per_step(lambda s: incl(s, "op." + op)), "ms")
    m["tensor.fwd_op_ms"] = metric(per_step(op_ms), "ms")
    m["tensor.fwd_glue_ms"] = metric(per_step(lambda s: incl(s, "trainer.forward") - op_ms(s)), "ms")
    m["tensor.backward_ms"] = metric(per_step(lambda s: incl(s, "tensor.backward")), "ms")
    m["tensor.fwd_gflop_per_s"] = metric(
        per_step(lambda s: tracer.op_counts[s][1] / (incl(s, "trainer.forward") * 1e6)), "GFLOP/s"
    )

    m["backbone.fwd_ms"] = metric(per_step(lambda s: incl(s, "backbone")), "ms")
    m["backbone.fwd_nodes"] = metric(per_step(lambda s: nodes[s]["backbone"]), "count")
    m["backbone.eval_fwd_ms"] = metric(per_call("eval", "backbone"), "ms")
    m["backbone.block.fwd_ms"] = metric(per_step(lambda s: incl(s, "backbone.block")), "ms")
    m["backbone.attn.fwd_ms"] = metric(per_step(lambda s: incl(s, "backbone.attn")), "ms")
    for name in ("backbone", "backbone.block", "backbone.attn"):
        m[f"{name}.self_ms"] = metric(per_step(lambda s: self_ms(s, name)), "ms")

    m["nn.linear.fwd_ms"] = metric(per_step(lambda s: incl(s, "nn.linear")), "ms")
    m["nn.linear.calls"] = metric(per_step(lambda s: calls(s, "nn.linear")), "count")
    m["nn.layer_norm.fwd_ms"] = metric(per_step(lambda s: incl(s, "nn.layer_norm")), "ms")
    m["nn.mlp.fwd_ms"] = metric(per_step(lambda s: incl(s, "nn.mlp")), "ms")
    m["nn.pool_conv.fwd_ms"] = metric(per_step(lambda s: incl(s, "nn.pool_conv")), "ms")
    m["nn.pool_conv.calls"] = metric(per_step(lambda s: calls(s, "nn.pool_conv")), "count")
    m["nn.pool_conv.unit_stride_calls"] = metric(per_step(lambda s: tracer.unit_stride_pool_calls[s]), "count")

    m["losses.fwd_ms"] = metric(per_step(lambda s: incl(s, "trainer.forward") - incl(s, "backbone")), "ms")
    m["losses.fwd_nodes"] = metric(per_step(lambda s: ops_total(s) - nodes[s]["backbone"]), "count")
    m["losses.heads.fwd_ms"] = metric(per_step(lambda s: incl(s, "losses.heads", "losses.projection")), "ms")
    m["losses.heads.fwd_nodes"] = metric(
        per_step(lambda s: nodes[s]["losses.heads"] + nodes[s]["losses.projection"]), "count"
    )
    m["losses.ce.fwd_ms"] = metric(per_step(lambda s: incl(s, "losses.ce")), "ms")
    m["losses.combine.fwd_ms"] = metric(per_step(lambda s: incl(s, "losses.combine", "losses.informative")), "ms")
    m["losses.informative.fwd_nodes"] = metric(per_step(lambda s: nodes[s]["losses.informative"]), "count")

    m["optim.step_ms"] = metric(per_step(lambda s: incl(s, "optim.step")), "ms")
    m["optim.zero_grad_ms"] = metric(per_step(lambda s: incl(s, "optim.zero_grad")), "ms")
    m["optim.param_tensors"] = metric(len(state.opt.params), "count")

    m["trainer.step_ms"] = metric(per_step(lambda s: incl(s, "trainer.step")), "ms")
    m["trainer.step_other_ms"] = metric(per_step(lambda s: self_ms(s, "trainer.step")), "ms")
    m["trainer.eval_ms"] = metric(per_call("eval", "trainer.evaluate"), "ms")
    m["trainer.eval_batches"] = metric(calls("eval", "backbone") / max(1, calls("eval", "trainer.evaluate")), "count")

    m["data.sample_ms"] = metric(per_step(lambda s: incl(s, "data.sample")), "ms")
    m["data.render_ms"] = metric(incl("setup", "data.clip"), "ms")
    m["data.clips_rendered"] = metric(calls("setup", "data.clip"), "count")

    m["tensor_io.save_ms"] = metric(per_call("checkpoint", "tensor_io.save"), "ms")
    m["tensor_io.load_ms"] = metric(per_call("checkpoint", "tensor_io.load"), "ms")
    m["tensor_io.checkpoint_bytes"] = metric(probes.path.stat().st_size, "bytes")
    m["tensor_io.entries"] = metric(len(state.model.state_arrays()) + len(state.opt.state_arrays()), "count")

    m["config.resolve_ms"] = metric(incl("setup", "config.load", "config.resolve"), "ms")

    m["trace.overhead_ms"] = metric(1e3 * (statistics.median(traced_s) - statistics.median(untraced_s)), "ms")
    m["trace.spans_per_step"] = metric(per_step(lambda s: sum(r[2] for r in times[s].values())), "count")
    return m


def write_spans(workdir: Path, spans: list[list]) -> None:
    with open(workdir / "spans.ndjson", "w") as fh:
        for name, start, end, parent, step in spans:
            fh.write(json.dumps([name, start, end, parent, step]) + "\n")


# -- output ----------------------------------------------------------------------------


def finish(failures: Failures, metrics: dict, detail: dict) -> dict:
    detail["failures"] = failures.messages
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> int:
    workdir = out_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if trace else run_untraced
        result = runner(workload, seed, seconds, workdir)
    finally:
        (workdir / "checkpoint.mttn").unlink(missing_ok=True)
        (workdir / "checkpoint.mttn.json").unlink(missing_ok=True)
    detail = result.pop("detail")
    detail.update(workload=workload.name, seed=seed, trace=trace, environment=environment())
    for name, m in result["metrics"].items():
        print(f"{workload.name:18s} {name:34s} {m['value']:14.6g} {m['unit']}")
    for message in detail["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
