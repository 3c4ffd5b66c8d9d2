"""Trained bits do not depend on the BLAS thread count, across processes.

The tile-exact conv3d and the Linear layers issue single large GEMMs, which is
where OpenBLAS may split work across threads; a split that changed the order
of a reduction would change the parameters.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

TRAIN_AND_HASH = """
import hashlib
from cotrain.config import RunConfig
from cotrain.trainer import TrainState, train_steps

cfg = RunConfig.load(None, [])
state = TrainState.create(
    cfg.backbone_config(), cfg.suite(), cfg.train_config(), cfg.loss_config(), cfg.hash()
)
train_steps(state, 5, lambda step, lr, report: None)
h = hashlib.sha256()
for name, p in state.model.named_parameters():
    h.update(name.encode())
    h.update(p.data.tobytes())
print(h.hexdigest())
"""


def _param_hash(blas_threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", TRAIN_AND_HASH], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_parameters_match_across_blas_thread_counts():
    one, two = _param_hash(1), _param_hash(2)
    assert len(one) == 64
    assert one == two
