"""Trained bits do not depend on the BLAS thread count or on the CPUs a process may use, across processes.

Nor may a speed-up change them: every benchmark workload, trained to its
horizon on seed 1, must reproduce the fingerprints recorded in
``perfbench/baseline.json``.

The tile-exact conv3d and the Linear layers issue single large GEMMs, which is
where OpenBLAS may split work across threads; a split that changed the order
of a reduction would change the parameters.  The tensor ops split their large
kernels across a pool with one worker per CPU in the affinity mask; a block
boundary that changed any element's arithmetic would do the same.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

TRAIN_AND_HASH = """
import hashlib
from cotrain.config import RunConfig
from cotrain.trainer import train_steps

cfg = RunConfig.load(None, [])
state = cfg.train_state()
train_steps(state, 5, lambda step, lr, report: None)
h = hashlib.sha256()
for name, p in state.model.named_parameters():
    h.update(name.encode())
    h.update(p.data.tobytes())
print(h.hexdigest())
"""

# Three steps of the benchmark's wide-clip workload (32x32 clips, widths 32/64):
# its attention scores, MLP activations and batched products are far above the
# split size.  With argv[1] == "1" the process first restricts itself to one
# CPU, before cotrain is imported.  Prints the parameter hash, the hash of one
# batch of eval logits, the pool's worker count and how many ops reached it.
WIDE_CLIP_HASHES = """
import hashlib, os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cotrain import tensor
from cotrain.config import RunConfig
from cotrain.tensor import Tensor, no_grad
from cotrain.trainer import train_steps

calls = []
split = tensor._split
def counting_split(chunk, rows, like):
    calls.append(rows)
    return split(chunk, rows, like)
tensor._split = counting_split

overrides = ["train.mode=vanilla", "backbone.input_h=32", "backbone.input_w=32", "backbone.stage_dims=32,64"]
cfg = RunConfig.load(None, overrides)
state = cfg.train_state()
train_steps(state, 3, lambda step, lr, report: None)
params = hashlib.sha256()
for name, p in state.model.named_parameters():
    params.update(name.encode())
    params.update(p.data.tobytes())
clips, _ = state.suite.split_arrays(0, "test")
with no_grad():
    logits = state.model.heads(0, state.model.backbone(Tensor(clips[:64]))).data
print(params.hexdigest(), hashlib.sha256(logits.tobytes()).hexdigest(), tensor._workers, len(calls))
"""


# Seed 1 of one benchmark workload (argv[2]), set up and trained to its
# horizon as perfbench/harness.py does, hashed with the harness's own
# functions.  argv[1] is the perfbench directory.
WORKLOAD_FINGERPRINTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from harness import loss_hash, param_hash, set_up
from workloads import WORKLOADS
from cotrain import trainer

workload = WORKLOADS[sys.argv[2]]
cfg, state = set_up(workload, 1)
reports = trainer.train_steps(state, workload.horizon)
print(json.dumps({
    "params_sha256": param_hash(state.model),
    "losses_sha256": loss_hash([r.total for r in reports]),
}))
"""


def _run(script: str, *args: str, **env_overrides: str) -> str:
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_parameters_match_across_blas_thread_counts():
    one = _run(TRAIN_AND_HASH, OPENBLAS_NUM_THREADS="1")
    two = _run(TRAIN_AND_HASH, OPENBLAS_NUM_THREADS="2")
    assert len(one) == 64
    assert one == two


def test_parameters_and_logits_match_on_one_cpu():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available on this platform")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs at least 2 CPUs in the affinity mask to compare against 1")
    params, logits, workers, calls = _run(WIDE_CLIP_HASHES, "0", OPENBLAS_NUM_THREADS="1").split()
    one_params, one_logits, one_workers, one_calls = _run(
        WIDE_CLIP_HASHES, "1", OPENBLAS_NUM_THREADS="1"
    ).split()
    assert int(workers) >= 2 and int(calls) > 0  # the unrestricted run did split
    assert int(one_workers) == 1
    assert (one_params, one_logits) == (params, logits)


@pytest.mark.parametrize(
    "workload",
    [
        "default_full",
        "many_heads_full",
        pytest.param("wide_clip_vanilla", marks=pytest.mark.slow),
    ],
)
def test_benchmark_fingerprints_match_the_baseline(workload):
    # BLAS on one thread, as perfbench/run.py pins it when the baseline was recorded.
    got = json.loads(_run(WORKLOAD_FINGERPRINTS, str(PERFBENCH), workload, OPENBLAS_NUM_THREADS="1"))
    baseline = json.loads((PERFBENCH / "baseline.json").read_text())
    want = baseline["workloads"][workload]["fingerprints"]["1"]
    assert got == {key: want[key] for key in ("params_sha256", "losses_sha256")}
