"""End-to-end acceptance gate for the whole package.

One test per release property, numbered c01..c10, so ``pytest -v`` shows a
single pass/fail row per property.  Each test also prints a one-line verdict
(run with ``pytest -s`` to see them as they happen).

Properties 5-7 share a training matrix (4 ablation modes x 3 seeds at the
default full-scale configuration) built once per session; that fixture
dominates the file's runtime.  It trains the 12 runs in two forked processes
where two CPUs are free, about six minutes on a 2-core Xeon VM.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import cotrain.losses as L
import cotrain.tensor as T
import cotrain.verify as verify
from cotrain.backbone import BackboneConfig, PooledAttention
from cotrain.cli import main
from cotrain.data import generate_synthetic_suite, sample_mixed_batch
from cotrain.rng import Rng
from cotrain.tensor import Tensor, count_ops
from cotrain.trainer import (
    TrainConfig,
    TrainState,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train_steps,
)

MODES = ("full", "vanilla", "wo_informative", "wo_projection")
SEEDS = (1, 3, 4)
NUM_DATASETS = 3
CLASSES = 4
CHANCE = 1.0 / CLASSES


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[c{num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def t64(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


# -- 1: finite-difference gradient verification --------------------------------


def test_c01_gradient_correctness():
    start = time.perf_counter()
    checks = verify.run_all()
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.passed]
    worst = max(checks, key=lambda c: c.error / c.threshold)
    ok = not failed and elapsed < 300.0
    detail = (
        f"{len(checks)} checks, worst {worst.name} err {worst.error:.2e} "
        f"(tol {worst.threshold:.0e}), {elapsed:.1f}s"
    )
    assert _verdict(1, "gradient correctness", ok, detail), detail
    # the table's own tolerances: every loss at 1e-5, the deep composition at 1e-4
    assert all(c.threshold <= 1e-4 for c in checks)
    assert all(c.threshold <= 1e-5 for c in checks if "loss" in c.name or "entropy" in c.name)


# -- 2: frozen hand values for every loss --------------------------------------


def test_c02_loss_hand_values():
    got = []

    def check(name, value, want):
        got.append((name, float(value), want))

    check("var antisymmetric", L.variance_loss(t64([[1, -1], [-1, 1]]), eps=0.0).item(), 0.0)
    check("var zeros", L.variance_loss(t64(np.zeros((3, 4))), eps=1e-4).item(), 0.99)
    want = ((1 - math.sqrt(0.045)) + (1 - math.sqrt(0.32))) / 2
    check("var two-col", L.variance_loss(t64([[0, 0], [0.3, 0.8]]), eps=0.0).item(), want)
    check("cov correlated", L.covariance_loss(t64([[1, 1], [-1, -1]])).item(), 4.0)
    check("cov independent", L.covariance_loss(t64([[1, 0], [-1, 0]])).item(), 0.0)
    check("cov three-row", L.covariance_loss(t64([[1, 2], [3, 4], [5, 6]])).item(), 16.0)
    check("ce uniform", L.cross_entropy(t64(np.zeros((2, 4))), np.array([1, 3])).item(), math.log(4))
    want = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
    check("ce single row", L.cross_entropy(t64([[1, 2, 3]]), np.array([2])).item(), want)
    check("ce extreme", L.cross_entropy(t64([[1000, 0], [-1000, 0]]), np.array([0, 1])).item(), 0.0)
    sigma = L.SigmaParams(2)
    sigma.log_sigma.data = np.log(np.asarray([1.0, 2.0], dtype=np.float64))
    total, _ = L.total_loss(None, None, {0: t64(2.0), 1: t64(8.0)}, sigma)
    check("weighted total", total.item(), 2.0 + math.log(2.0))

    errs = [(name, abs(value - want)) for name, value, want in got]
    worst = max(errs, key=lambda e: e[1])
    ok = worst[1] < 1e-6
    detail = f"{len(got)} hand values, worst {worst[0]} err {worst[1]:.2e}"
    assert _verdict(2, "loss hand values", ok, detail), detail


# -- 3: stationary point of the uncertainty weighting ---------------------------


def test_c03_sigma_stationary_points():
    rng = Rng(99, 0)
    worst = 0.0

    def sigma_grad(lval: float, sval: float) -> float:
        params = L.SigmaParams(1)
        params.log_sigma.data = np.asarray([math.log(sval)], dtype=np.float64)
        total = L.uncertainty_weighted_sum({0: t64(lval)}, params.sigma())
        total.backward()
        # d/d sigma = d/d log(sigma) / sigma for the log-parameterized value
        return float(params.log_sigma.grad[0]) / sval

    for _ in range(100):
        lval = float(rng.uniform(low=0.1, high=5.0))
        sval = float(rng.uniform(low=0.3, high=3.0))
        expected = -lval / sval**3 + 1.0 / sval
        worst = max(worst, abs(sigma_grad(lval, sval) - expected))
        worst = max(worst, abs(sigma_grad(lval, math.sqrt(lval))))

    ok = worst < 1e-6
    detail = f"100 random (loss, sigma) pairs, worst grad err {worst:.2e}"
    assert _verdict(3, "sigma stationary point", ok, detail), detail


# -- 4: pooled attention against a loop reference -------------------------------


def _naive_attention(attn: PooledAttention, x: np.ndarray) -> np.ndarray:
    """O(L^2) per-token loops: scores, softmax, value mixing, query shortcut."""

    def lin(layer, vec):
        return vec @ layer.weight.data.astype(np.float64) + layer.bias.data.astype(np.float64)

    batch, length, dim = x.shape
    hd = attn.head_dim
    out = np.zeros((batch, length, dim))
    for n in range(batch):
        mixed = np.zeros((length, dim))
        for h in range(attn.heads):
            cols = slice(h * hd, (h + 1) * hd)
            q = np.stack([lin(attn.q, x[n, t])[cols] for t in range(length)])
            k = np.stack([lin(attn.k, x[n, t])[cols] for t in range(length)])
            v = np.stack([lin(attn.v, x[n, t])[cols] for t in range(length)])
            for t in range(length):
                scores = np.array([q[t] @ k[u] * attn.scale for u in range(length)])
                scores -= scores.max()
                probs = np.exp(scores) / np.exp(scores).sum()
                mixed[t, cols] = sum(probs[u] * v[u] for u in range(length)) + q[t]
        for t in range(length):
            out[n, t] = lin(attn.out, mixed[t])
    return out


def test_c04_attention_matches_naive_reference():
    rng = Rng(41, 0)
    unit = (1, 1, 1)
    worst = 0.0
    for trial in range(20):
        dim, heads = [(8, 2), (12, 3), (16, 4), (8, 4)][trial % 4]
        grid = [(2, 2, 2), (1, 3, 2), (2, 1, 3), (1, 2, 2)][trial % 4]
        attn = PooledAttention(dim, heads, unit, unit, rng)
        for layer in (attn.q, attn.k, attn.v, attn.out):
            layer.weight.data = rng.normal(layer.weight.shape, std=0.5).astype(np.float32)
            layer.bias.data = rng.normal(layer.bias.shape, std=0.5).astype(np.float32)
        length = grid[0] * grid[1] * grid[2]
        x = rng.normal((2, length, dim), std=1.0).astype(np.float32)
        got, out_grid = attn(Tensor(x), grid)
        assert out_grid == grid
        worst = max(worst, float(np.abs(got.data - _naive_attention(attn, x)).max()))
    ok = worst < 1e-5
    detail = f"20 unit-stride instances, max deviation {worst:.2e}"
    assert _verdict(4, "attention loop equivalence", ok, detail), detail


# -- 5-7: the ablation matrix ----------------------------------------------------


def _alias_recovery(bank: L.ProjectionBank, alias_map) -> tuple[int, int]:
    """Count alias-mapped source classes whose learned column argmax is right."""
    hits = total = 0
    for i in range(NUM_DATASETS):
        for k in range(NUM_DATASETS):
            if i == k:
                continue
            weights = bank.pair(i, k).data
            for src, dst in alias_map.mapped_classes(i, k).items():
                total += 1
                hits += int(np.argmax(weights[:, src]) == dst)
    return hits, total


def _matrix_suite():
    return generate_synthetic_suite(
        7,
        NUM_DATASETS,
        [CLASSES] * NUM_DATASETS,
        [200] * NUM_DATASETS,
        [100] * NUM_DATASETS,
    )


def _train_cell(cell, checkpoint):
    """Train one ``(mode, seed)`` of the matrix; return its top-1 per dataset and its alias recovery.

    With a ``checkpoint`` path the trained state is also saved there.
    """
    mode, seed = cell
    suite = _matrix_suite()
    config = TrainConfig(mode=mode, seed=seed)
    state = TrainState.create(BackboneConfig(), suite, config)
    train_steps(state, config.steps)
    results = evaluate(state.model, suite)
    recovery = _alias_recovery(state.model.projections, suite.alias_map) if mode == "full" else (0, 0)
    if checkpoint is not None:
        save_checkpoint(state, checkpoint)
    return [results[d].top1 for d in range(NUM_DATASETS)], recovery


def _one_thread_pool():
    """Run every op of a matrix worker on its own thread: the workers already fill the CPUs."""
    T.MAX_WORKERS = 1


@pytest.fixture(scope="module")
def ablation_matrix(tmp_path_factory):
    """Train every constrained mode on three seeds at the default scale.

    The runs are independent, so they are spread over one forked process per
    CPU, at most two.  A pool's thread count does not change the trained
    bits, nor does the process a run is trained in.
    """
    checkpoint = tmp_path_factory.mktemp("matrix") / "full_seed1.mttn"
    cells = [(mode, seed) for mode in MODES for seed in SEEDS]
    saves = [checkpoint if cell == ("full", SEEDS[0]) else None for cell in cells]
    jobs = min(2, T._cpu_count()) if hasattr(os, "fork") else 1
    if jobs > 1:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(jobs, mp_context=context, initializer=_one_thread_pool) as pool:
            done = list(pool.map(_train_cell, cells, saves))
    else:
        done = list(map(_train_cell, cells, saves))
    suite = _matrix_suite()
    config = TrainConfig(mode="full", seed=SEEDS[0])
    return {
        "suite": suite,
        "acc": {cell: top1 for cell, (top1, _) in zip(cells, done)},
        "recovery": (sum(hits for _, (hits, _) in done), sum(total for _, (_, total) in done)),
        "full_state": load_checkpoint(TrainState.create(BackboneConfig(), suite, config), checkpoint),
    }


def _seed_means(acc, mode):
    return [
        float(np.mean([acc[mode, seed][d] for seed in SEEDS])) for d in range(NUM_DATASETS)
    ]


@pytest.mark.slow
def test_c05_collapse_without_informative_loss(ablation_matrix):
    acc = ablation_matrix["acc"]
    full = _seed_means(acc, "full")
    woinf = _seed_means(acc, "wo_informative")
    near_chance = sum(abs(m - CHANCE) <= 0.10 for m in woinf)
    ok = all(m > 0.70 for m in full) and near_chance >= 2
    detail = (
        f"full per-dataset mean {[round(m, 3) for m in full]}, "
        f"wo_informative {[round(m, 3) for m in woinf]} "
        f"({near_chance}/{NUM_DATASETS} within 10 points of chance)"
    )
    assert _verdict(5, "informative-loss collapse ablation", ok, detail), detail


@pytest.mark.slow
def test_c06_full_mode_beats_ablations(ablation_matrix):
    acc = ablation_matrix["acc"]
    grand = {
        mode: float(np.mean([acc[mode, seed] for seed in SEEDS])) for mode in MODES
    }
    ok = grand["full"] > grand["wo_projection"] and grand["full"] > grand["vanilla"]
    detail = (
        f"mean top-1 full {grand['full']:.3f} vs "
        f"wo_projection {grand['wo_projection']:.3f}, vanilla {grand['vanilla']:.3f}"
    )
    assert _verdict(6, "component value margins", ok, detail), detail


@pytest.mark.slow
def test_c07_projection_recovers_alias_map(ablation_matrix):
    hits, total = ablation_matrix["recovery"]
    ok = hits / total >= 0.80
    detail = f"argmax matches generator alias on {hits}/{total} mapped classes"
    assert _verdict(7, "alias recovery", ok, detail), detail


# -- 8: the projection bank is free at inference time ----------------------------


@pytest.mark.slow
def test_c08_projection_bank_free_at_inference(ablation_matrix):
    state = ablation_matrix["full_state"]
    suite = ablation_matrix["suite"]
    model = state.model
    saved = [p.data.copy() for _, p in model.projections.named_parameters()]

    before = evaluate(model, suite)
    with count_ops() as with_bank:
        evaluate(model, suite)
    model.projections.zero_()
    after = evaluate(model, suite)
    bank = model.projections
    model.projections = None
    with count_ops() as without_bank:
        evaluate(model, suite)
    model.projections = bank
    for (_, p), data in zip(model.projections.named_parameters(), saved):
        p.data = data

    same_metrics = all(
        before[d].top1 == after[d].top1 and before[d].top5 == after[d].top5
        for d in range(NUM_DATASETS)
    )
    ok = (
        same_metrics
        and with_bank.flops == without_bank.flops
        and with_bank.ops == without_bank.ops
    )
    detail = (
        f"metrics unchanged by zeroed bank: {same_metrics}; eval flops "
        f"{with_bank.flops} with bank vs {without_bank.flops} without"
    )
    assert _verdict(8, "inference-free projection bank", ok, detail), detail


# -- 9: bitwise determinism and checkpoint resume --------------------------------


def test_c09_determinism_and_resume(tmp_path):
    ini = tmp_path / "run.cfg"
    ini.write_text(
        "[datasets]\ntrain_size = 64\ntest_size = 32\n\n[train]\nsteps = 240\nwarmup_steps = 60\n"
    )
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "b"), "--seed", "3"]) == 0
    reports_equal = (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()

    suite = generate_synthetic_suite(
        7, NUM_DATASETS, [CLASSES] * NUM_DATASETS, [64] * NUM_DATASETS, [32] * NUM_DATASETS
    )
    straight = TrainState.create(BackboneConfig(), suite, TrainConfig(mode="full", seed=3, steps=240, warmup_steps=60))
    train_steps(straight, 240)

    resumed = TrainState.create(BackboneConfig(), suite, TrainConfig(mode="full", seed=3, steps=240, warmup_steps=60))
    train_steps(resumed, 120)
    save_checkpoint(resumed, tmp_path / "mid.mttn")
    fresh = TrainState.create(BackboneConfig(), suite, TrainConfig(mode="full", seed=3, steps=240, warmup_steps=60))
    fresh = load_checkpoint(fresh, tmp_path / "mid.mttn")
    train_steps(fresh, 120)

    params_equal = all(
        (p.data == q.data).all()
        for (_, p), (_, q) in zip(
            straight.model.named_parameters(), fresh.model.named_parameters()
        )
    )
    eval_straight = evaluate(straight.model, suite)
    eval_fresh = evaluate(fresh.model, suite)
    metrics_equal = all(
        eval_straight[d].top1 == eval_fresh[d].top1
        and eval_straight[d].top5 == eval_fresh[d].top5
        for d in range(NUM_DATASETS)
    )
    ok = reports_equal and params_equal and metrics_equal
    detail = (
        f"twin runs report.csv byte-equal: {reports_equal}; midpoint resume "
        f"params bitwise: {params_equal}, metrics bitwise: {metrics_equal}"
    )
    assert _verdict(9, "determinism and resume", ok, detail), detail


# -- 10: sampler proportions ------------------------------------------------------


def test_c10_sampler_proportions():
    suite = generate_synthetic_suite(11, 2, [4, 4], [100, 300], [50, 50])
    counts = np.zeros(2)
    draws = 0
    for step in range(625):
        batch = sample_mixed_batch(Rng(13, stream=step), 16, suite, "proportional")
        counts += np.bincount(batch.dataset_ids, minlength=2)
        draws += 16
    freq = counts / draws
    target = np.array([0.25, 0.75])
    deviation = float(np.abs(freq - target).max())
    ok = deviation <= 0.02
    detail = (
        f"{draws} draws at sizes (100, 300): frequencies {np.round(freq, 4).tolist()} "
        f"vs target {target.tolist()}, max deviation {deviation:.4f}"
    )
    assert _verdict(10, "sampler proportions", ok, detail), detail
